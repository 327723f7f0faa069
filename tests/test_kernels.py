"""The C search kernel against the Python reference body, its checks at
the ctypes boundary, and how it is built, cached and replaced by the
Python body when it cannot be."""

import inspect
import json
import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest

from jigsaw import kernels
from jigsaw.core import generate_puzzle, side_array
from jigsaw.harness import derive_trial_seed
from jigsaw.solver import _SearchPlan, decide

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCES = os.path.join(ROOT, "tests", "search_references.json")
ARG = {name: k for k, name in enumerate(inspect.signature(kernels._search_impl).parameters)}
NO_CC = "no C compiler: cc is not on PATH"


@pytest.fixture(scope="module")
def search_c():
    """kernels.search_c, loaded even where JIGSAW_DISABLE_NUMBA keeps it from being the default."""
    if shutil.which("cc") is None:
        pytest.skip(NO_CC)
    if os.environ.get("JIGSAW_DISABLE_NUMBA"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_search_c", kernels._load_c())
            yield kernels.search_c
    else:
        assert kernels.ACTIVE_BACKEND == "c", kernels._C_ERROR
        yield kernels.search_c


def as_array(values):
    return np.array(values, dtype=np.int64)


def as_list(values):
    return np.asarray(values).tolist()


def arguments(plan, limit, budget, max_store, form=as_array):
    """Every argument of a search of plan, its sequences in form."""
    cells = len(plan.cells)
    inputs = tuple(x if isinstance(x, int) else form(x) for x in plan.inputs)
    sols = np.zeros(max(max_store, 0) * cells, dtype=np.int64)
    return [*inputs, limit, budget, max_store, sols, *(form([0] * cells) for _ in range(5))]


def run_both(search_c, plan, limit, budget, max_store):
    """(result, stored rows) of the C body and of the Python body."""
    runs = []
    for search, form in ((search_c, as_array), (kernels.search_python, as_list)):
        args = arguments(plan, limit, budget, max_store, form)
        result = search(*args)
        assert all(type(v) is int for v in result), result
        runs.append((result, args[ARG["sols"]][: result[3] * len(plan.cells)].tolist()))
    return runs


def reference_plan(ref, n, q, t):
    return _SearchPlan(side_array(generate_puzzle(n, q, derive_trial_seed(ref["master"], n, q, t))), n)


class TestAgainstPython:
    """The C body repeats the Python one: the same (status, count, nodes,
    stored) and the same stored placements."""

    def test_frozen_references(self, search_c):
        with open(REFERENCES) as fh:
            ref = json.load(fh)
        for n, q, t, *_ in ref["decisions"]:
            c, py = run_both(search_c, reference_plan(ref, n, q, t), 2, ref["budget"], 2)
            assert c == py, (n, q, t)
        for n, q, t, *_ in ref["counts"]:
            c, py = run_both(search_c, reference_plan(ref, n, q, t), ref["cap"] // 4, 2_000, ref["cap"] // 4)
            assert c == py, (n, q, t)

    def test_random_grid_reaches_every_status(self, search_c):
        statuses = set()
        for n in range(2, 7):
            for q in (1, 2, 3, 4, 6, 9, 16, 64):
                sides = side_array(generate_puzzle(n, q, derive_trial_seed(8, n, q, 0)))
                plan = _SearchPlan(sides, n)
                for limit, budget, max_store in ((2**62, 3_000, 3), (2, 20_000, 2), (10**9, 20_000, 5), (0, 50, 1)):
                    c, py = run_both(search_c, plan, limit, budget, max_store)
                    assert c == py, (n, q, limit, budget, max_store)
                    statuses.add(c[0][0])
        assert statuses == {kernels.STATUS_COMPLETE, kernels.STATUS_LIMIT, kernels.STATUS_BUDGET}

    def test_scalars_past_int64_are_clamped(self, search_c):
        plan = _SearchPlan(side_array(generate_puzzle(3, 4, seed=4)), 3)  # 46,061 nodes in all
        for limit, budget in ((2**80, 2**80), (-(2**80), 2**80), (2**80, -(2**80)), (5, 2**64)):
            c, py = run_both(search_c, plan, limit, budget, 4)
            assert c == py, (limit, budget)
        slack = ARG["slack"]
        for value in (2**70, -(2**70)):
            args = [arguments(plan, 10**6, 10**6, 2, form) for form in (as_array, as_list)]
            for a in args:
                a[slack] = value
            assert search_c(*args[0]) == kernels.search_python(*args[1])

    def test_lists_and_read_only_arrays_are_accepted(self, search_c):
        plan = _SearchPlan(side_array(generate_puzzle(4, 3, seed=2)), 4)
        expected = kernels.search_python(*arguments(plan, 10, 10**6, 0, as_list))
        assert search_c(*arguments(plan, 10, 10**6, 0, as_list)) == expected
        read_only = arguments(plan, 10, 10**6, 0)
        for x in read_only[:14]:
            if isinstance(x, np.ndarray):
                x.setflags(write=False)
        assert search_c(*read_only) == expected


def cut(a):
    return a[:-1]


# (argument, damage, message): each makes one buffer unfit for the kernel
BAD_BUFFERS = [
    ("items", lambda a: a.astype(np.int32), "int64"),
    ("bottoms", lambda a: a.astype(np.float64), "int64"),
    ("keys", lambda a: np.repeat(a, 2)[::2], "C-contiguous"),
    ("used", lambda a: np.repeat(a, 2)[1::2], "C-contiguous"),
    ("los", lambda a: a.reshape(1, -1), "one-dimensional"),
    ("sols", lambda a: a.tolist(), "numpy array"),
    ("sols", cut, "sols holds 17 values, the search can index 18"),
    *[(name, cut, f"{name} holds") for name in ("keys", "los", "his")],
    *[(name, cut, f"{name} holds 8 values, the search can index 9")
      for name in ("left_pos", "prev_out", "chosen", "ptr", "end", "spent", "used")],
    *[(name, cut, f"{name} holds 35 values, the search can index 36") for name in ("rights", "tcost", "lcost")],
]


def set_at(index, value):
    def damage(a):
        a = a.copy()
        a[index] = value
        return a

    return damage


def bad_arguments(name, damage):
    plan = _SearchPlan(side_array(generate_puzzle(3, 3, seed=7)), 3)
    args = list(arguments(plan, 2, 10**6, 2))
    args[ARG[name]] = damage(args[ARG[name]])
    return args


class TestBoundary:
    """No buffer that C could read or write past its end reaches C."""

    @pytest.mark.parametrize("name,damage,message", BAD_BUFFERS)
    def test_bad_buffer_never_reaches_c(self, search_c, name, damage, message, monkeypatch):
        def reached(*args):
            raise AssertionError("a bad buffer reached the C kernel")

        args = bad_arguments(name, damage)
        monkeypatch.setattr(kernels, "_search_c", reached)
        with pytest.raises(ValueError, match=message):
            search_c(*args)

    @pytest.mark.parametrize("name,value", [("bits", 33), ("bits", -1), ("width", 1), ("width", 2**31 + 1)])
    def test_bad_scalar_never_reaches_c(self, search_c, name, value, monkeypatch):
        args = bad_arguments(name, lambda _: value)
        monkeypatch.setattr(kernels, "_search_c", None)
        with pytest.raises(ValueError, match=name):
            search_c(*args)

    # each index that one array gives into another, pushed out of range
    @pytest.mark.parametrize("name,damage", [
        ("items", set_at(3, 36)),
        ("items", set_at(0, -1)),
        ("top_pos", set_at(1, 1)),
        ("left_pos", set_at(0, -2)),
        ("prev_out", set_at(4, 8)),
        ("los", set_at(0, -1)),
        ("his", lambda a: a + 1000),
        ("his", lambda a: np.full_like(a, -1)),
        ("keys", np.zeros_like),
        ("bottoms", lambda a: a + 1000),
        ("rights", set_at(5, -1)),
        ("tcost", set_at(2, 2)),
        ("lcost", set_at(2, -1)),
        ("top_pos", lambda a: a[:0]),
    ])
    def test_out_of_range_index_is_refused_before_the_search(self, search_c, name, damage):
        args = bad_arguments(name, damage)
        with pytest.raises(ValueError, match="outside their buffers"):
            search_c(*args)
        assert not args[ARG["sols"]].any()


def fresh_python(tmp_path, code, **env):
    """Run code in a new interpreter with an empty cache and temp folder."""
    (tmp_path / "tmp").mkdir(exist_ok=True)
    environment = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        TMPDIR=str(tmp_path / "tmp"),
        PYTHONPATH=os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")))),
    )
    environment.pop("JIGSAW_DISABLE_NUMBA", None)
    environment.update(env)
    out = subprocess.run(
        [sys.executable, "-c", code], env=environment, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


CASES = [(3, 2, 0), (3, 9, 1), (4, 4, 2), (4, 16, 3), (5, 5, 4)]
PROBE = (
    "from jigsaw import core, kernels, solver\n"
    "print(kernels.ACTIVE_BACKEND)\n"
    f"print([(v.kind, v.nodes, v.orient) for v in (solver.decide(core.generate_puzzle(*c), 'exact') for c in {CASES})])\n"
)


def verdicts():
    return str([(v.kind, v.nodes, v.orient) for v in (decide(generate_puzzle(*c), "exact") for c in CASES)])


def private_folder(tmp_path):
    return tmp_path / "tmp" / f"jigsaw-{os.getuid()}"


class TestBuildAndFallback:
    def test_without_a_compiler_python_gives_the_same_verdicts(self, tmp_path):
        (tmp_path / "bin").mkdir()
        backend, got = fresh_python(tmp_path, PROBE, PATH=str(tmp_path / "bin"))
        assert (backend, got) == ("python", verdicts())
        # no half-built library is left behind
        for folder in (tmp_path / "cache" / "jigsaw", private_folder(tmp_path)):
            assert not folder.exists() or not any(folder.iterdir())

    def test_disable_flag_builds_nothing(self, tmp_path):
        backend, got = fresh_python(tmp_path, PROBE, JIGSAW_DISABLE_NUMBA="1")
        assert (backend, got) == ("python", verdicts())
        assert not (tmp_path / "cache").exists() and not private_folder(tmp_path).exists()

    def test_first_import_builds_and_later_ones_load(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip(NO_CC)
        library = tmp_path / "cache" / "jigsaw" / kernels._library_name()
        assert fresh_python(tmp_path, PROBE) == ["c", verdicts()]
        built = library.stat()
        assert fresh_python(tmp_path, PROBE) == ["c", verdicts()]
        assert (library.stat().st_ino, library.stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)
        assert [p.name for p in library.parent.iterdir()] == [library.name]

    def test_library_name_follows_the_source_the_flags_and_the_machine(self, tmp_path, monkeypatch):
        name = kernels._library_name()
        edited = tmp_path / "_kernel.c"
        with open(kernels._SOURCE, "rb") as fh:
            edited.write_bytes(fh.read() + b"\n")
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_SOURCE", str(edited))
            assert kernels._library_name() != name
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "_CFLAGS", kernels._CFLAGS + ("-g",))
            assert kernels._library_name() != name
        monkeypatch.setattr(platform, "machine", lambda: "another machine")
        assert kernels._library_name() != name

    def test_garbage_library_is_rebuilt(self, tmp_path):
        folder = tmp_path / "cache" / "jigsaw"
        folder.mkdir(parents=True, mode=0o700)
        library = folder / kernels._library_name()
        library.write_bytes(b"not a shared library\n" * 100)
        backend, got = fresh_python(tmp_path, PROBE)
        assert got == verdicts()
        assert backend == ("python" if shutil.which("cc") is None else "c")
        if backend == "c":
            assert library.read_bytes()[:4] == b"\x7fELF"

    @pytest.mark.parametrize("cache", ["shared", "a file"])
    def test_unusable_cache_falls_back_to_a_private_temp_folder(self, tmp_path, cache):
        if shutil.which("cc") is None:
            pytest.skip(NO_CC)
        if cache == "shared":
            folder = tmp_path / "cache" / "jigsaw"
            folder.mkdir(parents=True)
            folder.chmod(0o777)  # others could swap the library
        else:
            (tmp_path / "cache").write_text("")
        assert fresh_python(tmp_path, PROBE) == ["c", verdicts()]
        assert (private_folder(tmp_path) / kernels._library_name()).is_file()
        assert private_folder(tmp_path).stat().st_mode & 0o077 == 0


def test_package_data_ships_the_kernel_source():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        config = tomllib.load(fh)
    assert "_kernel.c" in config["tool"]["setuptools"]["package-data"]["jigsaw"]
    assert "numba" not in config["project"].get("optional-dependencies", {})
    assert os.path.isfile(kernels._SOURCE)
