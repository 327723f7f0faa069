"""End-to-end CLI tests, through subprocesses and, where a test patches the program, in-process."""

import os
import subprocess
import sys

import numpy as np
import pytest

from jigsaw import certificates, cli

CLI = [sys.executable, "-m", "jigsaw.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(
    os.environ,
    JIGSAW_DISABLE_NUMBA="1",  # fast interpreter startup
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)


def run(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=ENV, **kw
    )


@pytest.fixture
def puzzle(tmp_path):
    path = tmp_path / "p.txt"
    assert run("gen", "--n", "3", "--q", "2", "--seed", "42", "--out", str(path)).returncode == 0
    return path


class TestPipeline:
    def test_gen_writes_parseable_file(self, puzzle):
        text = puzzle.read_text()
        assert text.startswith("3 2\n")
        assert text.endswith("\n")
        assert len(text.strip().split("\n")) == 1 + 4 + 3

    def test_gen_stdout(self):
        out = run("gen", "--n", "2", "--q", "3", "--seed", "1")
        assert out.returncode == 0
        assert out.stdout.startswith("2 3\n")

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run("gen", "--n", "4", "--q", "5", "--seed", "9", "--out", str(a))
        run("gen", "--n", "4", "--q", "5", "--seed", "9", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_solve_counts(self, puzzle):
        out = run("solve", "--in", str(puzzle), "--limit", "50")
        assert out.returncode == 0
        count, tag = out.stdout.split()[1:3]
        assert int(count) >= 4
        assert tag in ("exact", "at-least")

    def test_solve_witness_verifies(self, puzzle, tmp_path):
        w = tmp_path / "w.txt"
        assert run("solve", "--in", str(puzzle), "--limit", "5", "--witness-out", str(w)).returncode == 0
        out = run("verify", "--in", str(puzzle), "--witness", str(w))
        assert out.returncode == 0
        assert out.stdout.strip() == "VALID"

    def test_unique_nonunique_with_witness(self, puzzle, tmp_path):
        w = tmp_path / "wit.txt"
        out = run("unique", "--in", str(puzzle), "--mode", "exact", "--witness-out", str(w))
        assert out.returncode == 0
        assert out.stdout.startswith("NONUNIQUE")
        check = run("verify", "--in", str(puzzle), "--witness", str(w))
        assert check.stdout.strip() == "VALID"

    def test_unique_modes_agree(self, puzzle):
        for mode in ("exact", "auto"):
            out = run("unique", "--in", str(puzzle), "--mode", mode)
            assert out.stdout.startswith("NONUNIQUE")

    def test_certify_reports_pair(self, puzzle):
        out = run("certify", "--in", str(puzzle))
        assert out.returncode == 0
        first = out.stdout.split("\n")[0]
        assert first.startswith(("PAIR", "SYMMETRIC", "NONE"))
        # q=2, n=3: seed 42 is known to carry a certificate
        assert not first.startswith("NONE")

    def test_certify_none_on_distinct_colours(self, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("2 12\n0 1\n2 3\n4 5\n6 7 8\n9 10 11\n")
        out = run("certify", "--in", str(p))
        assert out.returncode == 0
        assert out.stdout.strip() == "NONE"

    def test_certify_none_on_n1(self, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("1 1\n0\n0\n0 0\n")
        out = run("certify", "--in", str(p))
        assert out.returncode == 0
        assert out.stdout.strip() == "NONE"


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert run("gen", "--n", "2").returncode == 1
        assert run("nosuchcommand").returncode == 1
        assert run("gen", "--n", "0", "--q", "2").returncode == 1

    def test_bad_puzzle_file_is_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n q\n")
        out = run("solve", "--in", str(p))
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_bad_witness_file_is_2(self, puzzle, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("0,0:9\n")
        assert run("verify", "--in", str(puzzle), "--witness", str(w)).returncode == 2

    def test_witness_label_mismatch_is_2(self, puzzle, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("7,7:0 0,1:0 0,2:0\n1,0:0 1,1:0 1,2:0\n2,0:0 2,1:0 2,2:0\n")
        out = run("verify", "--in", str(puzzle), "--witness", str(w))
        assert out.returncode == 2

    def test_undetermined_is_3(self, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("2 12\n0 1\n2 3\n4 5\n6 7 8\n9 10 11\n")
        out = run("unique", "--in", str(p), "--mode", "certificate")
        assert out.returncode == 3
        assert out.stdout.startswith("UNDETERMINED")

    def test_invalid_witness_is_4(self, puzzle, tmp_path):
        w = tmp_path / "w.txt"
        # misrotated identity: parses fine, colours mismatch
        w.write_text("0,0:1 0,1:0 0,2:0\n1,0:0 1,1:0 1,2:0\n2,0:0 2,1:0 2,2:0\n")
        out = run("verify", "--in", str(puzzle), "--witness", str(w))
        if out.stdout.strip() == "INVALID":
            assert out.returncode == 4
        else:
            # freak case: that rotation happens to match; force a clean miss
            w.write_text("0,1:0 0,0:0 0,2:0\n1,0:0 1,1:0 1,2:0\n2,0:0 2,1:0 2,2:0\n")
            out = run("verify", "--in", str(puzzle), "--witness", str(w))
            assert out.returncode in (0, 4)

    def test_missing_file_is_1(self):
        assert run("solve", "--in", "/nonexistent/p.txt").returncode == 1


class TestPolyCommand:
    def test_enumerate(self):
        out = run("poly", "--enumerate", "4")
        assert out.returncode == 0
        assert "size 4: 19 fixed polyominoes" in out.stdout

    def test_check(self):
        out = run("poly", "--enumerate", "5", "--check-lemma1")
        assert out.returncode == 0
        assert "OK" in out.stdout


class TestPatchCommand:
    def test_straightline(self):
        out = run(
            "patch", "--type", "straightline", "--ell", "3", "--q", "4",
            "--trials", "20000", "--seed", "1",
        )
        assert out.returncode == 0
        assert "exact_ordered_probability=0.015625" in out.stdout
        assert "estimate=" in out.stdout

    def test_swappair(self):
        out = run("patch", "--type", "swappair", "--q", "5", "--trials", "20000")
        assert out.returncode == 0
        assert "unavailable" in out.stdout
        assert "pairwise_bound=0.2" in out.stdout

    def test_hole_bound_printed(self):
        out = run("patch", "--type", "hole", "--ell", "2", "--q", "3", "--trials", "1000")
        assert "hole_bound=" in out.stdout

    def test_unknown_kind_names_the_valid_ones(self):
        out = run("patch", "--type", "bogus", "--q", "3")
        assert out.returncode == 1
        assert "'bogus'" in out.stderr
        for kind in ("straightline", "convexcorners", "hole", "indentation", "subsquare", "swappair"):
            assert kind in out.stderr


class TestImports:
    def test_cli_leaves_patch_modules_unloaded(self):
        code = "import sys, jigsaw.cli; print(sorted(m for m in sys.modules if m.startswith('jigsaw.')))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, check=True)
        loaded = out.stdout.strip()
        assert "jigsaw.cli" in loaded
        assert "jigsaw.patches" not in loaded and "jigsaw.polyomino" not in loaded

    def test_package_names_load_on_use(self):
        code = (
            "import jigsaw\n"
            "from jigsaw import build_patch, corner_census\n"
            "from jigsaw.patches import build_patch as direct\n"
            "assert build_patch is direct and corner_census.__module__ == 'jigsaw.polyomino'\n"
            "assert all(getattr(jigsaw, name) is not None for name in jigsaw.__all__)\n"
            "try:\n"
            "    jigsaw.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, check=True)
        assert out.stdout.strip() == "ok"


class TestSweepCommand:
    def test_csv_shape_and_determinism(self, tmp_path):
        args = (
            "sweep", "--n", "2,3", "--q", "1,2", "--trials", "6",
            "--mode", "exact", "--seed", "3", "--no-timings",
        )
        a = run(*args)
        b = run(*args, "--workers", "3")
        assert a.returncode == 0
        lines = a.stdout.strip().split("\n")
        assert lines[0] == "n,q,mode,trials,unique,nonunique,undetermined,master_seed,mean_ms"
        assert len(lines) == 1 + 4
        assert a.stdout == b.stdout

    def test_out_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        out = run(
            "sweep", "--n", "2", "--q", "1", "--trials", "3", "--seed", "0",
            "--no-timings", "--out", str(path),
        )
        assert out.returncode == 0
        assert path.read_text().startswith("n,q,mode")


# Puzzles of the tests above, plus one whose only certificate is a
# symmetric piece, with the bytes `unique` and `certify` printed before
# the decision path was folded into solver.decide.
GOLDEN_PUZZLES = {
    "pair": None,  # the `puzzle` fixture: gen --n 3 --q 2 --seed 42
    "distinct": "2 12\n0 1\n2 3\n4 5\n6 7 8\n9 10 11\n",
    "one": "1 1\n0\n0\n0 0\n",
    "symmetric": "2 12\n0 1\n0 3\n4 5\n6 6 8\n9 10 11\n",
}
GOLDEN_UNIQUE = {
    "pair": ("NONUNIQUE\n", "NONUNIQUE (certificate)\n", "NONUNIQUE (certificate)\n"),
    "distinct": ("UNIQUE\n", "UNDETERMINED (no certificate found)\n", "UNIQUE\n"),
    "one": ("UNIQUE\n", "UNIQUE\n", "UNIQUE\n"),
    "symmetric": ("NONUNIQUE\n", "NONUNIQUE (certificate)\n", "NONUNIQUE (certificate)\n"),
}
GOLDEN_CERTIFY = {
    "pair": "PAIR a=1,1 b=1,2 shift=2\n0,0:0 0,1:0 0,2:0\n1,0:0 1,2:2 1,1:2\n2,0:0 2,1:0 2,2:0\n",
    "distinct": "NONE\n",
    "one": "NONE\n",
    "symmetric": "SYMMETRIC piece=0,0\n0,0:2 0,1:0\n1,0:0 1,1:0\n",
}
GOLDEN_EXACT_WITNESS = {
    "pair": "0,0:0 0,1:0 0,2:0\n1,0:0 1,1:0 1,2:0\n2,0:0 2,1:2 2,2:0\n",
    "symmetric": "1,1:2 1,0:2\n0,1:2 0,0:0\n",
}


@pytest.fixture(params=sorted(GOLDEN_PUZZLES))
def golden(request, puzzle, tmp_path):
    text = GOLDEN_PUZZLES[request.param]
    if text is None:
        return request.param, puzzle
    path = tmp_path / "g.txt"
    path.write_text(text)
    return request.param, path


class TestGoldenOutput:
    @pytest.mark.parametrize("mode", ["exact", "certificate", "auto"])
    def test_unique(self, golden, mode, tmp_path):
        name, path = golden
        w = tmp_path / "w.txt"
        out = run("unique", "--in", str(path), "--mode", mode, "--witness-out", str(w))
        expected = GOLDEN_UNIQUE[name][("exact", "certificate", "auto").index(mode)]
        assert out.stdout == expected
        assert out.returncode == (3 if expected.startswith("UNDETERMINED") else 0)
        assert w.exists() == expected.startswith("NONUNIQUE")
        if w.exists():
            certify = GOLDEN_CERTIFY[name].split("\n", 1)[1]
            assert w.read_text() == (GOLDEN_EXACT_WITNESS[name] if mode == "exact" else certify)

    def test_certify(self, golden):
        name, path = golden
        out = run("certify", "--in", str(path))
        assert (out.returncode, out.stdout) == (0, GOLDEN_CERTIFY[name])


class TestWitnessChecked:
    """A certificate witness that is not one must never be printed."""

    @pytest.mark.parametrize("mode", ["certificate", "auto"])
    @pytest.mark.parametrize("damage", ["identity", "colour"])
    def test_unique_rejects_bad_certificate_witness(self, puzzle, mode, damage, monkeypatch, capsys):
        bad = 4 * np.arange(9)  # the identity
        if damage == "colour":
            bad[4] += 1  # (1, 1) turned in place: its sides no longer match
        monkeypatch.setattr(certificates, "swap_orientations", lambda sides, cert, n: bad)
        try:
            cli.main(["unique", "--in", str(puzzle), "--mode", mode])
        except AssertionError:
            return
        assert "NONUNIQUE" not in capsys.readouterr().out

    def test_certify_rejects_bad_certificate_witness(self, puzzle, monkeypatch):
        monkeypatch.setattr(certificates, "swap_orientations", lambda sides, cert, n: 4 * np.arange(9))
        with pytest.raises(AssertionError):
            cli.main(["certify", "--in", str(puzzle)])
