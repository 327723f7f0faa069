#!/usr/bin/env python3
"""Independent reference for the uniqueness benchmark.

Nothing here imports ``jigsaw``.  Inputs are regenerated from the
documented seed scheme (chained splitmix64 over
``(master, n, q, trial)``, then numpy's PCG64 seeded with the result,
horizontal slots drawn before vertical ones), verdicts and counts come
from a plain recursive backtracker over dict buckets, and certificates
from a numpy canonical-form scan.  The run compares the program's
outputs with what this module computed.

    python3 uniqbench/reference.py      # rebuild uniqbench/reference.json

Rebuilding takes about a minute on two cores.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def trial_seed(master: int, n: int, q: int, trial: int) -> int:
    s = _mix(master & _MASK)
    for part in (n, q, trial):
        s = _mix(s ^ (part & _MASK))
    return s


def slots(n: int, q: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(h, v) slot colours: h has shape (n+1, n), v has shape (n, n+1)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    h = rng.integers(0, q, size=(n + 1, n), dtype=np.int64)
    v = rng.integers(0, q, size=(n, n + 1), dtype=np.int64)
    return h, v


def puzzle_text(n: int, q: int, h: np.ndarray, v: np.ndarray) -> str:
    rows = [f"{n} {q}"]
    rows += [" ".join(map(str, row)) for row in h.tolist()]
    rows += [" ".join(map(str, row)) for row in v.tolist()]
    return "\n".join(rows) + "\n"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def side_tuples(h: np.ndarray, v: np.ndarray) -> dict:
    """{(i, j): (top, right, bottom, left)} for every cut piece."""
    n = h.shape[1]
    H, V = h.tolist(), v.tolist()
    return {
        (i, j): (H[i][j], V[i][j + 1], H[i + 1][j], V[i][j])
        for i in range(n)
        for j in range(n)
    }


def shown(sides: tuple, r: int) -> tuple:
    """Colours facing up, right, down, left after r clockwise quarter turns."""
    return tuple(sides[(d - r) % 4] for d in range(4))


def count_assemblies(h: np.ndarray, v: np.ndarray, stop_at: int | None = None) -> int:
    """Valid (placement, rotation) assemblies, counted to ``stop_at`` at most.

    Cells are filled row by row.  Each cell looks its candidates up in a
    dict keyed by the colours its placed top and left neighbours demand
    (None for a border side), so no candidate is tried twice.
    """
    n = h.shape[1]
    pieces = side_tuples(h, v)
    buckets: dict = {}
    for label, sides in sorted(pieces.items()):
        for r in range(4):
            up, right, down, left = shown(sides, r)
            for key in ((None, None), (up, None), (None, left), (up, left)):
                buckets.setdefault(key, []).append((label, right, down))
    used: set = set()
    below = [None] * n  # colour each column shows downwards, for the next row
    found = 0

    def place(k: int, left_colour) -> bool:
        nonlocal found
        if k == n * n:
            found += 1
            return stop_at is not None and found >= stop_at
        i, j = divmod(k, n)
        key = (below[j] if i else None, left_colour if j else None)
        saved = below[j]
        for label, right, down in buckets.get(key, ()):
            if label in used:
                continue
            used.add(label)
            below[j] = down
            if place(k + 1, right):
                return True
            used.discard(label)
        below[j] = saved
        return False

    place(0, None)
    return found


def canonical_scan(h: np.ndarray, v: np.ndarray) -> str | None:
    """'pair' if two pieces are equal up to rotation, else 'symmetric' if one
    piece equals a nontrivial rotation of itself, else None."""
    sides = np.stack([h[:-1, :], v[:, 1:], h[1:, :], v[:, :-1]], axis=-1).reshape(-1, 4)
    base = int(sides.max()) + 1
    weights = base ** np.arange(3, -1, -1, dtype=np.int64)
    codes = np.stack([np.roll(sides, r, axis=1) @ weights for r in range(4)], axis=1)
    canon = codes.min(axis=1)
    if np.unique(canon).size < canon.size:
        return "pair"
    if (codes[:, 1:] == codes[:, :1]).any():
        return "symmetric"
    return None


def verdict_of(h: np.ndarray, v: np.ndarray) -> str:
    """'unique' iff the four global rotations are the only assemblies."""
    return "unique" if count_assemblies(h, v, stop_at=5) == 4 else "nonunique"


def build(workload_inputs: dict) -> dict:
    """Reference entries for every input of every workload, in list order."""
    ref: dict = {}
    for item in workload_inputs["sweep_exact"]:
        cells = []
        for q in item["qs"]:
            for t in range(item["trials"]):
                h, v = slots(item["n"], q, trial_seed(item["master"], item["n"], q, t))
                cells.append([q, t, verdict_of(h, v)])
        ref.setdefault("sweep_exact", []).append({**item, "verdicts": cells})
    for item in workload_inputs["unique_sparse"]:
        n, q = item["n"], item["q"]
        h, v = slots(n, q, trial_seed(item["master"], n, q, item["trial"]))
        ref.setdefault("unique_sparse", []).append(
            {**item, "sha256": text_digest(puzzle_text(n, q, h, v)), "verdict": verdict_of(h, v)}
        )
    for item in workload_inputs["certify_large"]:
        n, q = item["n"], item["q"]
        h, v = slots(n, q, trial_seed(item["master"], n, q, 0))
        ref.setdefault("certify_large", []).append(
            {**item, "certificate": canonical_scan(h, v)}
        )
    for item in workload_inputs["count_all"]:
        n, q = item["n"], item["q"]
        h, v = slots(n, q, trial_seed(item["master"], n, q, item["trial"]))
        ref.setdefault("count_all", []).append(
            {**item, "sha256": text_digest(puzzle_text(n, q, h, v)), "count": count_assemblies(h, v)}
        )
    return ref


def load() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    ref = build(workloads.input_lists())
    text = json.dumps(ref, indent=1, sort_keys=True) + "\n"
    REFERENCE_PATH.write_text(text, encoding="ascii")
    print(f"wrote {REFERENCE_PATH.name}: " + ", ".join(f"{k} {len(v)}" for k, v in sorted(ref.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
