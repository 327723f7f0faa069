"""Layer tracing from outside the program.

Each traced function is replaced, in every ``jigsaw`` module that binds
it, by a wrapper that records a span: name, start, end, parent span and
thread.  Callers look the name up in their own module at call time, so
``harness.decide_unique``, ``solver.pieces_of`` and ``kernels.search``
all reach the wrapper without any change to the program.  A target the
program no longer defines is reported as unmeasured.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from time import perf_counter

# span name -> (defining module, attribute)
TARGETS = {
    "core.generate_puzzle": ("jigsaw.core", "generate_puzzle"),
    "core.pieces_of": ("jigsaw.core", "pieces_of"),
    "core.edge_pairing": ("jigsaw.core", "edge_pairing"),
    "core.read_puzzle": ("jigsaw.core", "read_puzzle"),
    "solver.decide_unique": ("jigsaw.solver", "decide_unique"),
    "solver.count_valid": ("jigsaw.solver", "count_valid"),
    "solver.verify_assembly": ("jigsaw.solver", "verify_assembly"),
    "kernels.search": ("jigsaw.kernels", "search"),
    "certificates.find_rotation_equivalent_pair": ("jigsaw.certificates", "find_rotation_equivalent_pair"),
    "certificates.find_symmetric_piece": ("jigsaw.certificates", "find_symmetric_piece"),
    "certificates.build_swap_witness": ("jigsaw.certificates", "build_swap_witness"),
    "harness.run_sweep": ("jigsaw.harness", "run_sweep"),
    "cli.main": ("jigsaw.cli", "main"),
}

SCAN = ("certificates.find_rotation_equivalent_pair", "certificates.find_symmetric_piece")
PLAN = ("solver.decide_unique", "solver.count_valid")

# per-layer metric -> unit; the order is the order of the report
PER_LAYER = {
    "kernels.search.nodes": "count",
    "kernels.search.ms": "ms",
    "kernels.search.ns_per_node": "ns",
    "solver.plan.ms": "ms",
    "solver.plan.peak_alloc_mb": "MB",
    "core.pieces_of.ms": "ms",
    "core.edge_pairing.ms": "ms",
    "core.edge_pairing.calls": "count",
    "solver.verify_assembly.ms": "ms",
    "certificates.scan.ms": "ms",
    "certificates.build_swap_witness.ms": "ms",
    "certificates.scan.hit_ratio": "ratio",
    "core.generate_puzzle.ms": "ms",
    "core.read_puzzle.ms": "ms",
    "cli.main.self_ms": "ms",
    "harness.run_sweep.self_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unmeasured": "count",
}


class Patches:
    """Rebinds one function in every jigsaw module; undo() puts it back."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, module_name: str, attr: str, make_wrapper) -> bool:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "jigsaw" or name.startswith("jigsaw.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
        return True

    def undo(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()


class NodeCounter:
    """Sums kernels.search node counts; the only hook in untraced runs."""

    def __init__(self):
        self.calls: list = []  # list.append is atomic, so sweep threads may share it
        self.patches = Patches()
        self.found = self.patches.wrap("jigsaw.kernels", "search", self._make)

    def _make(self, search):
        def counted(*args, **kwargs):
            result = search(*args, **kwargs)
            self.calls.append(int(result[2]))
            return result

        return counted

    def total(self) -> int:
        return sum(self.calls)


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, thread id]
        self.hits: dict = {name: 0 for name in SCAN}
        self.nodes = 0
        self.unmeasured: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1
        self.patches = Patches()

    def install(self) -> None:
        self.unmeasured = [
            name for name, (module, attr) in TARGETS.items()
            if not self.patches.wrap(module, attr, lambda fn, name=name: self._make(name, fn))
        ]

    def uninstall(self) -> None:
        self.patches.undo()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _make(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                # spans opened by sweep worker threads hang under the outermost open span
                parent = stack[-1] if stack else self._root
                index = len(self.spans)
                self.spans.append([name, perf_counter(), None, parent, threading.get_ident()])
                if not stack and threading.current_thread() is threading.main_thread():
                    self._root = index
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = perf_counter()
                if not stack and self._root == index:
                    self._root = -1
            if name in self.hits and result is not None:
                self.hits[name] += 1
            elif name == "kernels.search":
                with self._lock:
                    self.nodes += int(result[2])
            return result

        return traced

    def layer_metrics(self, ops: int) -> dict:
        """Per-op totals of each layer (generate_puzzle: per call)."""
        total = {name: 0.0 for name in TARGETS}
        own = {name: 0.0 for name in TARGETS}
        calls = {name: 0 for name in TARGETS}
        children: dict = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += (end - start) - _covered(start, end, children.get(index, ()))
            calls[name] += 1
        per_op = max(ops, 1)
        ms = 1e3 / per_op
        scans = calls[SCAN[0]]
        return {
            "kernels.search.nodes": self.nodes / per_op,
            "kernels.search.ms": total["kernels.search"] * ms,
            "kernels.search.ns_per_node": total["kernels.search"] * 1e9 / self.nodes if self.nodes else 0.0,
            "solver.plan.ms": sum(own[name] for name in PLAN) * ms,
            "core.pieces_of.ms": total["core.pieces_of"] * ms,
            "core.edge_pairing.ms": total["core.edge_pairing"] * ms,
            "core.edge_pairing.calls": calls["core.edge_pairing"] / per_op,
            "solver.verify_assembly.ms": total["solver.verify_assembly"] * ms,
            "certificates.scan.ms": sum(total[name] for name in SCAN) * ms,
            "certificates.build_swap_witness.ms": total["certificates.build_swap_witness"] * ms,
            "certificates.scan.hit_ratio": sum(self.hits.values()) / scans if scans else 0.0,
            "core.generate_puzzle.ms": (
                total["core.generate_puzzle"] * 1e3 / calls["core.generate_puzzle"]
                if calls["core.generate_puzzle"] else 0.0
            ),
            "core.read_puzzle.ms": total["core.read_puzzle"] * ms,
            "cli.main.self_ms": own["cli.main"] * ms,
            "harness.run_sweep.self_ms": own["harness.run_sweep"] * ms,
            "trace.unmeasured": len(self.unmeasured),
        }

    def dump(self) -> list:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "thread": thread}
            for name, start, end, parent, thread in self.spans
        ]


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of child intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class PlanMemory:
    """tracemalloc peak of each decide_unique / count_valid call, in MB.

    Allocations are traced from the call's entry until the kernel starts,
    which covers the cut and the plan build.  The kernel itself runs
    untraced: it allocates a scalar per node, and tracing those would
    multiply its time while adding only its few O(n^2) arrays.  The sweep
    threads share one tracer, so on sweep_exact the figure is a lower bound.
    """

    def __init__(self):
        self.peak_mb = 0.0
        self.patches = Patches()
        for name in PLAN:
            self.patches.wrap(*TARGETS[name], self._make_call)
        self.patches.wrap(*TARGETS["kernels.search"], self._make_kernel)

    def _record(self) -> None:
        if tracemalloc.is_tracing():
            self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    def _make_call(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record()

        return measured

    def _make_kernel(self, search):
        def untraced(*args, **kwargs):
            self._record()
            return search(*args, **kwargs)

        return untraced
