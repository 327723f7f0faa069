"""The four workloads: fixed input lists, set-up, one operation, checks.

Inputs are fixed lists derived from master seeds that never change, so
every run of a workload repeats the same operations and the kernel's
node total per round is a constant of the program.  The run's ``--seed``
only shuffles the order of each round.  Nothing here imports ``jigsaw``
at module level: set-up hands the freshly imported modules in as ``jig``.
"""

from __future__ import annotations

import contextlib
import io
import os

import reference

NPROC = len(os.sched_getaffinity(0))

# arXiv 1605.03043; each workload offsets it so no two share a seed stream
MASTER = 160503043


def input_lists() -> dict:
    """Plain descriptions of every input, shared with reference.py."""
    return {
        # the phase transition at n = 4: trial 0 of every q cell, 24 sweeps.
        # Op latencies range over 10x; with 12 sweeps the median fell in a
        # gap between two inputs and moved by a quarter between runs.
        "sweep_exact": [
            {"master": MASTER + k, "n": 4, "qs": [2, 4, 8, 16, 32, 64], "trials": 1}
            for k in range(24)
        ],
        # the unique regime q = n^3: trials 0 and 1 of each (n, q) cell
        "unique_sparse": [
            {"master": MASTER + 100, "n": n, "q": n**3, "trial": t}
            for n in (16, 18, 20) for t in range(2)
        ],
        # the certificate regime q = n/5 on a large grid
        "certify_large": [
            {"master": MASTER + 200 + k, "n": 150, "q": 30} for k in range(8)
        ],
        # exhaustive counts at n = 3: the first four trials of each (n, q) cell
        # with at most 20,000 assemblies.  That skips only q=4 trial 0, whose
        # 199,936 assemblies take 1.8M nodes (10 s here) and would make a
        # round fourteen seconds long and every run two rounds.
        "count_all": [
            {"master": MASTER + 300, "n": 3, "q": q, "trial": t}
            for q, trials in ((4, (1, 2, 3, 4)), (5, (0, 1, 2, 3)), (6, (0, 1, 2, 3)))
            for t in trials
        ],
    }


def _cli(jig, argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = jig.cli.main(argv)
    return code, out.getvalue()


def _row(r) -> list:
    return [r.n, r.q, r.mode, r.trials, r.unique, r.nonunique, r.undetermined, r.master_seed, r.mean_ms]


def _file_digest(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return reference.text_digest(fh.read())


class SweepExact:
    """One exact-mode run_sweep per op, with the threads a user would use."""

    name = "sweep_exact"

    def prepare(self, jig, item: dict, index: int, work_dir: str):
        return jig.harness.SweepSpec(
            n_values=(item["n"],), q_values=tuple(item["qs"]), trials=item["trials"],
            mode="exact", master_seed=item["master"],
        )

    def puzzles(self, item: dict) -> int:
        return len(item["qs"]) * item["trials"]

    def run(self, jig, spec, op: int, work_dir: str):
        return [_row(r) for r in jig.harness.run_sweep(spec, workers=NPROC)]

    def failed(self, output) -> bool:
        return False

    def check(self, ref: dict, output) -> str | None:
        expected = []
        for q in sorted(set(ref["qs"])):
            verdicts = [v for qq, _, v in ref["verdicts"] if qq == q]
            expected.append([
                ref["n"], q, "exact", ref["trials"], verdicts.count("unique"),
                verdicts.count("nonunique"), 0, ref["master"], 0.0,
            ])
        return None if output == expected else f"rows {output} != reference {expected}"

    def check_inputs(self, refs: list, prepared: list) -> list:
        return []


class CertifyLarge(SweepExact):
    """One certificate-mode sweep trial per op on a 150x150 grid."""

    name = "certify_large"

    def prepare(self, jig, item: dict, index: int, work_dir: str):
        return jig.harness.SweepSpec(
            n_values=(item["n"],), q_values=(item["q"],), trials=1,
            mode="certificate", master_seed=item["master"],
        )

    def puzzles(self, item: dict) -> int:
        return 1

    def run(self, jig, spec, op: int, work_dir: str):
        return [_row(r) for r in jig.harness.run_sweep(spec, workers=1)]

    def check(self, ref: dict, output) -> str | None:
        if ref["certificate"] is None:
            return "reference scan found no certificate"
        expected = [[ref["n"], ref["q"], "certificate", 1, 0, 1, 0, ref["master"], 0.0]]
        return None if output == expected else f"rows {output} != reference {expected}"


class _PuzzleFiles:
    """Set-up writes each input as a puzzle file through the program's API."""

    def prepare(self, jig, item: dict, index: int, work_dir: str):
        n, q = item["n"], item["q"]
        gc = jig.core.generate_puzzle(
            n, q, jig.harness.derive_trial_seed(item["master"], n, q, item["trial"])
        )
        path = os.path.join(work_dir, f"{self.name}_{index}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(jig.core.write_puzzle(gc))
        return path

    def puzzles(self, item: dict) -> int:
        return 1

    def failed(self, output) -> bool:
        return output[0] != 0

    def check_inputs(self, refs: list, prepared: list) -> list:
        return [
            f"{path}: puzzle file differs from the reference generator"
            for ref, path in zip(refs, prepared)
            if _file_digest(path) != ref["sha256"]
        ]


class UniqueSparse(_PuzzleFiles):
    """`jigsaw unique` in auto mode, each op with its own witness path."""

    name = "unique_sparse"

    def run(self, jig, path: str, op: int, work_dir: str):
        witness = os.path.join(work_dir, f"witness_{op}.txt")
        code, out = _cli(jig, ["unique", "--in", path, "--witness-out", witness])
        return code, out, witness

    def check(self, ref: dict, output) -> str | None:
        _, out, witness = output
        first = out.split()[0] if out.split() else ""
        if first != ref["verdict"].upper():
            return f"printed {out!r}, reference verdict {ref['verdict']}"
        wrote = os.path.exists(witness)
        if wrote != (ref["verdict"] == "nonunique"):
            return f"{ref['verdict']} verdict, witness file written: {wrote}"
        return None


class CountAll(_PuzzleFiles):
    """`jigsaw solve`: an exhaustive count with no early stop."""

    name = "count_all"

    def run(self, jig, path: str, op: int, work_dir: str):
        return _cli(jig, ["solve", "--in", path])

    def check(self, ref: dict, output) -> str | None:
        words = output[1].split()
        if len(words) != 3 or words[0] != "assemblies" or words[2] != "exact":
            return f"printed {output[1]!r}"
        count = int(words[1])
        if count < 4 or count % 4:
            return f"count {count} is not a positive multiple of 4"
        return None if count == ref["count"] else f"count {count} != reference {ref['count']}"


WORKLOADS = {w.name: w for w in (SweepExact(), UniqueSparse(), CertifyLarge(), CountAll())}
