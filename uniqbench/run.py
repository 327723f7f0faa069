#!/usr/bin/env python3
"""Closed-loop benchmark of the uniqueness decision path.

    python3 uniqbench/run.py --workload sweep_exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` with nothing installed.  One process runs one workload: whole
rounds over the workload's fixed input list run one operation at a time
until ``--seconds`` have passed, and set-up is timed again at even steps
through the run.
``--seed`` shuffles the order of each round.  Every output is checked
against ``reference.json`` after the timed loop.  The last line of
standard output is one JSON object; ``--trace 0`` reports the
end-to-end metrics, with every timing scaled to a reference machine speed
(see ``machine_speed``), ``--trace 1`` the per-layer metrics of a traced
run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 25
P90_MIN_OPS = 100
# the calibration time that counts as speed 1; the development machine took 3.6-5.3 ms
CALIBRATION_REF_S = 0.004

sys.path.insert(0, str(HERE))
import reference  # noqa: E402  (imports numpy, so set-up times jigsaw's own import)
import spans  # noqa: E402
from workloads import WORKLOADS, input_lists  # noqa: E402


class Modules:
    """The program's modules as one freshly imported set."""

    NAMES = ("core", "solver", "kernels", "certificates", "harness", "cli")

    def __init__(self):
        for name in [m for m in sys.modules if m == "jigsaw" or m.startswith("jigsaw.")]:
            del sys.modules[name]
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"jigsaw.{name}"))


def machine_speed() -> float:
    """How fast the machine runs now: CALIBRATION_REF_S over a calibration's time.

    The machine this benchmark was built on changes speed by up to half
    from one minute to the next, under load from outside the process, so
    timings are scaled by the speed measured in the same run (see
    ``measure``).  The calibration is a fixed mix of set, dict and
    integer work in plain Python, close to the program's own, and runs
    with the collector off, so nothing the program sets changes it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        pairs = set()
        for i in range(3000):
            pairs.add(frozenset(((i, i & 3), (i * 7 % 1009, 2))))
        index = {}
        for pair in pairs:
            index[pair] = len(index)
        total = 0
        for i in range(20000):
            total += (i * i) % 7
        return CALIBRATION_REF_S / (perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


def set_up(workload, items: list, work_dir: str) -> tuple:
    """Import the program and prepare every input; returns (modules, inputs, seconds)."""
    t0 = perf_counter()
    jig = Modules()
    prepared = [workload.prepare(jig, item, k, work_dir) for k, item in enumerate(items)]
    return jig, prepared, perf_counter() - t0


def set_up_again(workload, items: list, work_dir: str) -> tuple:
    """Time one more set-up, then put back the modules the loop is using.

    Returns (seconds, machine speed just before).

    The loop's heap is collected and frozen first, so the collections
    during set-up scan only what set-up allocates, as in a fresh process,
    and not a heap that grows through the run.
    """
    in_use = {name: mod for name, mod in sys.modules.items() if name == "jigsaw" or name.startswith("jigsaw.")}
    gc.collect()
    speed = machine_speed()
    gc.freeze()
    try:
        return set_up(workload, items, work_dir)[2], speed
    finally:
        sys.modules.update(in_use)
        gc.unfreeze()
        gc.collect()


class Loop:
    """Whole rounds over the input list, one operation at a time."""

    def __init__(self, workload, jig, items, prepared, work_dir, rng):
        self.workload, self.jig, self.items = workload, jig, items
        self.prepared, self.work_dir, self.rng = prepared, work_dir, rng
        self.latencies: list = []
        self.speeds: list = []  # machine_speed() just before each op
        self.outputs: list = []  # (input index, output or None when the op failed)
        self.failed = 0
        self.puzzles = 0

    def rounds(self, seconds: float, counter=None, pause=None) -> tuple:
        """Run rounds until `seconds` have passed; returns (wall seconds, node totals per round).

        pause(elapsed) runs between ops and returns the seconds it took.
        Neither it nor the speed calibration before each op counts towards
        the run length or the wall time.
        """
        node_totals = []
        paused = 0.0
        start = perf_counter()
        while True:
            before = counter() if counter else 0
            order = list(range(len(self.items)))
            self.rng.shuffle(order)
            for k in order:
                paused += self.one(k)
                if pause is not None:
                    paused += pause(perf_counter() - start - paused)
            node_totals.append((counter() if counter else 0) - before)
            if perf_counter() - start - paused >= seconds:
                return perf_counter() - start - paused, node_totals

    def one(self, k: int) -> float:
        """Run input k once; returns the seconds spent calibrating first."""
        op = len(self.outputs)
        t_cal = perf_counter()
        self.speeds.append(machine_speed())
        t0 = perf_counter()
        try:
            output = self.workload.run(self.jig, self.prepared[k], op, self.work_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            output = None
        self.latencies.append(perf_counter() - t0)
        if output is None or self.workload.failed(output):
            self.failed += 1
            output = None
        else:
            self.puzzles += self.workload.puzzles(self.items[k])
        self.outputs.append((k, output))
        return t0 - t_cal


def check_outputs(workload, loop: Loop, refs: list) -> list:
    problems = workload.check_inputs(refs, loop.prepared)
    for k, output in loop.outputs:
        if output is not None:
            problem = workload.check(refs[k], output)
            if problem:
                problems.append(f"input {k}: {problem}")
    return problems


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "jigsaw").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def node_guard(workload: str, backend: str, node_totals: list) -> list:
    """Every round of every run of one program must search the same node total."""
    if len(set(node_totals)) != 1:
        return [f"node totals differ between rounds: {node_totals}"]
    path = RESULTS / "nodes.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    inputs = json.dumps(input_lists()[workload], sort_keys=True)
    key = f"{source_digest()}:{hashlib.sha256(inputs.encode()).hexdigest()[:16]}:{backend}:{workload}"
    if key in known and known[key] != node_totals[0]:
        return [f"node total {node_totals[0]} per round, earlier runs of this source gave {known[key]}"]
    known[key] = node_totals[0]
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, jig, items, prepared, work_dir, args, setups: list) -> tuple:
    """Untraced run: end-to-end metrics, with timings scaled by the machine's speed.

    Set-up is repeated at even steps through the run, so its median, like
    the other metrics, samples the machine over the whole run.  A set-up
    lasts about ten calibrations, so the speed taken just before it holds
    through it and scales it.  An op lasts up to a second, while the
    machine flips between a fast and a slow speed many times a second, so
    one sample misjudges it.  Ops are scaled by the run's mean speed: the
    harmonic mean of the speeds taken before each op, which is
    CALIBRATION_REF_S over the mean calibration time.  The unscaled
    figures go into the notes.
    """
    loop = Loop(workload, jig, items, prepared, work_dir, random.Random(args.seed))
    setup_dir = os.path.join(work_dir, "setup")
    os.makedirs(setup_dir, exist_ok=True)

    def pause(elapsed: float) -> float:
        t0 = perf_counter()
        while len(setups) < SETUP_REPEATS and elapsed >= args.seconds * len(setups) / SETUP_REPEATS:
            setups.append(set_up_again(workload, items, setup_dir))
        return perf_counter() - t0

    counter = spans.NodeCounter()
    wall, node_totals = loop.rounds(args.seconds, counter.total, pause)
    pause(args.seconds)  # a run with fewer ops than set-ups takes the rest here
    rss = peak_rss_mb()
    counter.patches.undo()
    speed = statistics.harmonic_mean(loop.speeds)
    lat_ms = sorted(x * speed * 1e3 for x in loop.latencies)
    metrics = {
        "puzzles_per_s": (loop.puzzles / (wall * speed), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "setup_s": (statistics.median(x * v for x, v in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "rounds": len(node_totals), "wall_s": wall, "speed": speed,
        "unscaled": {
            "puzzles_per_s": loop.puzzles / wall,
            "op_p50_ms": statistics.median(loop.latencies) * 1e3,
            "setup_s": statistics.median(x for x, _ in setups),
        },
    }
    if len(lat_ms) >= P90_MIN_OPS:
        notes["op_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]
    return loop, metrics, node_totals, notes, None


def measure_traced(workload, jig, items, prepared, work_dir, args, setups: list) -> tuple:
    """Traced run: per-layer metrics.

    Untraced and traced rounds alternate for the run length, so the
    tracing overhead compares rounds taken under the same machine load.
    One last round runs under tracemalloc for the plan's peak allocation.
    """
    loop = Loop(workload, jig, items, prepared, work_dir, random.Random(args.seed))
    counter = spans.NodeCounter()
    tracer = spans.Tracer()
    walls = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    node_totals: list = []
    elapsed = 0.0
    while elapsed < args.seconds or not ops[True]:
        traced = ops[False] > ops[True]
        if traced:
            tracer.install()
            if not ops[True]:
                # set-up is where the file-based workloads generate their puzzles
                for k, item in enumerate(items):
                    workload.prepare(jig, item, k, work_dir)
        before = len(loop.outputs)
        try:
            wall, totals = loop.rounds(0.0, counter.total)
        finally:
            tracer.uninstall()
        walls[traced] += wall
        ops[traced] += len(loop.outputs) - before
        node_totals += totals
        elapsed += wall
    counter.patches.undo()
    layers = tracer.layer_metrics(ops[True])
    layers["trace.overhead_pct"] = ((walls[True] / ops[True]) / (walls[False] / ops[False]) - 1.0) * 100.0

    memory = spans.PlanMemory()
    try:
        loop.rounds(0.0)
    finally:
        memory.patches.undo()
    layers["solver.plan.peak_alloc_mb"] = memory.peak_mb
    metrics = {name: (layers[name], unit) for name, unit in spans.PER_LAYER.items()}
    notes = {"traced_rounds": len(node_totals) // 2, "wall_s": elapsed, "unmeasured": tracer.unmeasured}
    return loop, metrics, node_totals, notes, tracer.dump()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "jigsaw" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    items = input_lists()[args.workload]
    work_dir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        speed = machine_speed()
        jig, prepared, seconds = set_up(workload, items, str(work_dir))
        setups = [(seconds, speed)]
        if Path(jig.core.__file__).resolve().parent != (SRC / "jigsaw").resolve():
            print(f"error: imported jigsaw from {jig.core.__file__}, not {SRC}", file=sys.stderr)
            return 2
        backend = jig.kernels.ACTIVE_BACKEND
        # one untimed op on the last input lets a JIT compile or load its cache
        Loop(workload, jig, items, prepared, str(work_dir), random.Random(0)).one(len(items) - 1)

        run = measure_traced if args.trace else measure
        loop, metrics, node_totals, notes, trace = run(workload, jig, items, prepared, str(work_dir), args, setups)

        RESULTS.mkdir(exist_ok=True)
        problems = check_outputs(workload, loop, reference.load()[args.workload])
        problems += node_guard(args.workload, backend, node_totals)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    attempted = len(loop.outputs)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "backend": backend, "nproc": len(os.sched_getaffinity(0)), "node_totals_per_round": node_totals,
        "setup_s_and_speed": setups, "inputs": [k for k, _ in loop.outputs],
        "latencies_ms": [x * 1e3 for x in loop.latencies], "speeds": loop.speeds,
        "problems": problems, **notes, "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(trace) + "\n")

    print(f"workload {args.workload}  backend {backend}  attempted {attempted}  failed {loop.failed}"
          f"  nodes/round {node_totals[0]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.4f} {unit}")
    if "unscaled" in notes:
        print(f"  unscaled, at mean machine speed {notes['speed']:.3f}: "
              + "  ".join(f"{name} {value:.4f}" for name, value in notes["unscaled"].items()))
    if "op_p90_ms" in notes:
        print(f"  {'op_p90_ms':<36} {notes['op_p90_ms']:14.4f} ms")
    elif not args.trace:
        print(f"  op_p90_ms not reported: {attempted} ops < {P90_MIN_OPS}")
    if notes.get("unmeasured"):
        print(f"  unmeasured layers: {', '.join(notes['unmeasured'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
