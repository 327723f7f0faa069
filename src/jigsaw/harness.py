"""Seeded uniqueness sweeps over grids of (n, q) cells.

Every trial's puzzle seed is derived from (master_seed, n, q, trial)
by chained splitmix64 mixing, so any cell or single trial can be
regenerated in isolation and results never depend on execution order.
Rows come out sorted by (n, q); with record_timings off, the CSV bytes
are a pure function of the sweep spec, independent of worker count.

Modes are those of ``solver.decide``, which settles every trial:
``exact`` search, ``certificate`` only (never Unique, except n = 1
where rigidity makes every puzzle unique), or ``auto``, the certificate
first with exact search as the fallback.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from . import kernels
from .core import generate_puzzle
from .solver import DEFAULT_NODE_BUDGET, MODES, decide

__all__ = [
    "splitmix64",
    "derive_trial_seed",
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "rows_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "n,q,mode,trials,unique,nonunique,undetermined,master_seed,mean_ms"

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scramble step (Steele/Lea/Flood finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_trial_seed(master_seed: int, n: int, q: int, trial: int) -> int:
    """Stable 64-bit seed for one trial of one sweep cell."""
    s = splitmix64(master_seed & _MASK)
    s = splitmix64(s ^ (n & _MASK))
    s = splitmix64(s ^ (q & _MASK))
    s = splitmix64(s ^ (trial & _MASK))
    return s


@dataclass(frozen=True)
class SweepSpec:
    n_values: tuple
    q_values: tuple
    trials: int
    mode: str = "exact"
    master_seed: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET
    record_timings: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "q_values", tuple(self.q_values))
        if not self.n_values or not self.q_values:
            raise ValueError("n_values and q_values must be nonempty")
        if any(n < 1 for n in self.n_values):
            raise ValueError("grid sizes must be >= 1")
        if any(q < 1 for q in self.q_values):
            raise ValueError("colour counts must be >= 1")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SweepRow:
    n: int
    q: int
    mode: str
    trials: int
    unique: int
    nonunique: int
    undetermined: int
    master_seed: int
    mean_ms: float


def _run_trial(n: int, q: int, mode: str, seed: int, node_budget: int) -> str:
    return decide(generate_puzzle(n, q, seed), mode, node_budget).kind


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Run every (n, q) cell of the spec; returns rows sorted by (n, q).

    On the C kernel, workers > 1 spreads trials over a thread pool, whose
    searches overlap because ctypes releases the interpreter lock during
    the call.  That pays where searches are long: on a 2-core VM, with
    the C kernel on both sides, four workers took an exact n = 5..6 sweep
    at q = 5..12 (4 trials per cell, 2M-node budget) from 0.64-0.67 s to
    0.36-0.68 s, while an exact n = 4 sweep of sub-millisecond trials
    went from 0.11-0.13 s to 0.17-0.24 s, as the hand-offs of the lock
    cost more than the overlap saves.
    The Python kernel holds the lock, so on that backend every trial
    runs in the calling thread whatever workers says.  Timings are
    averaged in trial order, so only mean_ms — and nothing else — can
    differ between runs, and with record_timings=False it is pinned to
    0.0.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = sorted((n, q) for n in set(spec.n_values) for q in set(spec.q_values))
    jobs = []
    for n, q in cells:
        for t in range(spec.trials):
            jobs.append((n, q, t, derive_trial_seed(spec.master_seed, n, q, t)))

    results: dict = {}

    def work(job):
        n, q, t, seed = job
        t0 = perf_counter()
        verdict = _run_trial(n, q, spec.mode, seed, spec.node_budget)
        return job, verdict, (perf_counter() - t0) * 1000.0

    if workers == 1 or kernels.ACTIVE_BACKEND == "python":
        done = map(work, jobs)
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            done = list(pool.map(work, jobs))
        finally:
            pool.shutdown()
    for job, verdict, ms in done:
        results[job[:3]] = (verdict, ms)

    rows = []
    for n, q in cells:
        tally = {"unique": 0, "nonunique": 0, "undetermined": 0}
        total_ms = 0.0
        for t in range(spec.trials):
            verdict, ms = results[(n, q, t)]
            tally[verdict] += 1
            total_ms += ms
        mean_ms = total_ms / spec.trials if spec.record_timings else 0.0
        rows.append(
            SweepRow(
                n=n,
                q=q,
                mode=spec.mode,
                trials=spec.trials,
                unique=tally["unique"],
                nonunique=tally["nonunique"],
                undetermined=tally["undetermined"],
                master_seed=spec.master_seed,
                mean_ms=mean_ms,
            )
        )
    return rows


def rows_to_csv(rows) -> str:
    """Serialize rows under the fixed header, '\\n' line endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.n},{r.q},{r.mode},{r.trials},{r.unique},{r.nonunique},"
            f"{r.undetermined},{r.master_seed},{r.mean_ms:.3f}"
        )
    return "\n".join(lines) + "\n"
