"""Exact assembly counting and the uniqueness decision.

decide_unique rests on a rigidity fact about the grid: an assembly
reproduces the original half-edge pairing if and only if it is one of
the four global rotations of the identity placement.  Those four are
always valid, so for n >= 2 a puzzle has a unique reconstruction (up to
rotating the finished puzzle) exactly when the raw count of valid
(placement, rotation) assemblies is 4.  For n = 1 the count is always 4
and every rotation shows the same border, so a 1x1 puzzle is Unique.

Every search pins piece 0 (the lowest label) to rotation 0.  Turning a
whole assembly adds 1 to the rotation of every piece, so exactly one of
each assembly's four global rotations meets the pin, and the raw count
is 4 times the pinned count.  The identity placement is the pinned
rotation of its own orbit, so deciding uniqueness stops at the 2nd
pinned assembly: the puzzle is unique exactly when the search completes
with a pinned count of 1, and otherwise the pinned assembly that is not
the identity is the non-uniqueness witness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .core import (
    Assembly,
    GridColoring,
    PieceBag,
    edge_pairing,
    identity_assembly,
    pieces_of,
    rotate_assembly,
    rotate_tuple,
)

DEFAULT_COUNT_LIMIT = 1_000_000
DEFAULT_NODE_BUDGET = 50_000_000

__all__ = [
    "ValidCount",
    "count_valid",
    "enumerate_assemblies",
    "UniquenessVerdict",
    "decide_unique",
    "verify_assembly",
    "write_witness",
    "read_witness",
    "WitnessFormatError",
]


class WitnessFormatError(ValueError):
    """Raised when witness text does not parse."""


def _square_order(n: int) -> list:
    """Grid cells in growing-square order (see kernels)."""
    cells = []
    for k in range(n):
        cells.extend((i, k) for i in range(k))
        cells.extend((k, j) for j in range(k + 1))
    return cells


class _SearchPlan:
    """Kernel inputs for a piece bag, with piece 0 pinned to rotation 0.

    cells is the search order, growing-square by default; every cell's
    top and left neighbours must come before it.  The candidate table
    has one slot per (top, left) pair that some orientation shows, plus
    the wildcard pairs of cells with a missing neighbour, so its size
    is linear in the number of pieces.
    """

    def __init__(self, bag: PieceBag, n: int, cells: Optional[list] = None):
        if len(bag) != n * n:
            raise ValueError(f"bag has {len(bag)} pieces, expected {n * n}")
        self.n = n
        self.pieces = sorted(bag, key=lambda p: p.label)
        self.cells = _square_order(n) if cells is None else list(cells)
        pos = {cell: d for d, cell in enumerate(self.cells)}
        top_pos = [pos.get((i - 1, j), -1) for i, j in self.cells]
        left_pos = [pos.get((i, j - 1), -1) for i, j in self.cells]
        if sorted(self.cells) != [(i, j) for i in range(n) for j in range(n)] or any(
            max(t, l) > d for d, (t, l) in enumerate(zip(top_pos, left_pos))
        ):
            raise ValueError("cells must list every grid cell once, after its top and left neighbours")

        self.colors = sorted({c for p in self.pieces for c in p.sides})
        cmap = {c: k for k, c in enumerate(self.colors)}
        width = len(self.colors) + 1
        wild = width - 1
        shown = [
            [cmap[c] for c in rotate_tuple(p.sides, r)] for p in self.pieces for r in range(4)
        ]
        groups: dict = {}
        for it, (t, _, _, l) in enumerate(shown):
            if 0 < it < 4:  # the pin: piece 0 shows only rotation 0
                continue
            for key in (t * width + l, t * width + wild, wild * width + l, wild * width + wild):
                groups.setdefault(key, []).append(it)
        bits = (2 * len(groups)).bit_length()
        mask = (1 << bits) - 1
        keys = [-1] * (mask + 1)
        los = [0] * (mask + 1)
        his = [0] * (mask + 1)
        items: list = []
        for key, members in groups.items():
            s = kernels.home_slot(key, bits)
            while keys[s] != -1:
                s = (s + 1) & mask
            keys[s] = key
            los[s] = len(items)
            items.extend(members)
            his[s] = len(items)

        to = kernels.as_backend
        self.inputs = (
            to(items), to(keys), to(los), to(his), bits, width, to(top_pos), to(left_pos),
            to([sh[2] for sh in shown]), to([sh[1] for sh in shown]),
        )

    def candidates(self, top, left) -> list:
        """(label, rotation) of each orientation the kernel tries where the
        neighbours show colours top and left (None: no neighbour there),
        in search order."""
        items, keys, los, his, bits, width = self.inputs[:6]
        code = {c: k for k, c in enumerate(self.colors)}
        code[None] = width - 1
        if top not in code or left not in code:
            return []
        key = code[top] * width + code[left]
        s = kernels.home_slot(key, bits)
        while keys[s] != key and keys[s] != -1:
            s = (s + 1) % len(keys)
        return [(self.pieces[int(it) >> 2].label, int(it) & 3) for it in items[los[s]:his[s]]]

    def arguments(self, limit: int, budget: int, max_store: int) -> tuple:
        """Everything kernels.search takes, with fresh scratch buffers."""
        zeros = kernels.zeros
        cells = len(self.cells)
        return self.inputs + (
            limit, budget, max_store, zeros(max_store * cells),
            zeros(len(self.pieces)), zeros(cells), zeros(cells), zeros(cells),
        )

    def run(self, limit: int, budget: int, max_store: int):
        """(status, pinned count, nodes, first stored assemblies)."""
        args = self.arguments(limit, budget, max_store)
        status, count, nodes, stored = kernels.search(*args)
        sols = args[13]  # the flat buffer of stored placements
        return status, count, nodes, [self._assembly(sols, k) for k in range(stored)]

    def _assembly(self, sols, k: int) -> Assembly:
        grid = [[None] * self.n for _ in range(self.n)]
        base = k * len(self.cells)
        for d, (i, j) in enumerate(self.cells):
            it = int(sols[base + d])
            grid[i][j] = (self.pieces[it >> 2].label, it & 3)
        return Assembly(n=self.n, cells=tuple(tuple(row) for row in grid))


@dataclass(frozen=True)
class ValidCount:
    """count is exact when exact=True, otherwise a '>= count' early exit."""

    count: int
    exact: bool


def count_valid(bag: PieceBag, n: int, limit: int = DEFAULT_COUNT_LIMIT) -> ValidCount:
    """Count valid assemblies, stopping once `limit` are found.

    Assemblies are counted in whole rotation orbits of 4, so an
    at-least count is the smallest multiple of 4 that is >= limit.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    plan = _SearchPlan(bag, n)
    status, count, _, _ = plan.run(limit=-(-limit // 4), budget=2**62, max_store=0)
    return ValidCount(count=4 * count, exact=status == kernels.STATUS_COMPLETE)


def enumerate_assemblies(bag: PieceBag, n: int, limit: int = 10_000) -> list[Assembly]:
    """All valid assemblies (at most `limit`), in search order.

    Each assembly the pinned search finds comes with its three global
    rotations right after it.
    """
    pinned = -(-limit // 4)
    _, _, _, found = _SearchPlan(bag, n).run(limit=pinned, budget=2**62, max_store=pinned)
    out = []
    for asm in found:
        for _ in range(4):
            out.append(asm)
            asm = rotate_assembly(asm)
    return out[:limit]


@dataclass(frozen=True)
class UniquenessVerdict:
    kind: str  # "unique" | "nonunique" | "undetermined"
    witness: Optional[Assembly] = None
    nodes: int = 0
    reason: str = ""

    @property
    def is_unique(self) -> bool:
        return self.kind == "unique"


def decide_unique(gc: GridColoring, budget: int = DEFAULT_NODE_BUDGET) -> UniquenessVerdict:
    """Decide whether gc rebuilds only as itself (up to global rotation).

    NonUnique verdicts carry a valid witness assembly whose half-edge
    pairing differs from the original.  If the node budget runs out the
    verdict is Undetermined; raising the budget can only turn
    Undetermined into a definite answer, never flip a definite one.
    """
    plan = _SearchPlan(pieces_of(gc), gc.n)
    status, count, nodes, found = plan.run(limit=2, budget=budget, max_store=2)
    if status == kernels.STATUS_BUDGET:
        return UniquenessVerdict(
            kind="undetermined",
            nodes=nodes,
            reason=f"node budget {budget} exhausted after {count} pinned assemblies",
        )
    if status == kernels.STATUS_COMPLETE and count == 1:
        return UniquenessVerdict(kind="unique", nodes=nodes)
    # A second pinned assembly exists; at most one of the two is the
    # identity, and the other realises a different pairing.
    original = edge_pairing(identity_assembly(gc.n))
    for asm in found:
        if edge_pairing(asm) != original:
            return UniquenessVerdict(kind="nonunique", witness=asm, nodes=nodes)
    raise AssertionError("search reported extra assemblies but no distinct pairing")


def verify_assembly(bag: PieceBag, asm: Assembly) -> bool:
    """Check an assembly directly against the bag, without any index.

    Every piece must be used exactly once and every internal edge must
    show one colour on both sides.  Label mismatches raise ValueError;
    colour mismatches just return False.
    """
    by_label = bag.by_label()
    seen = set()
    for row in asm.cells:
        for label, _ in row:
            if label not in by_label:
                raise ValueError(f"assembly uses unknown label {label}")
            if label in seen:
                raise ValueError(f"assembly repeats label {label}")
            seen.add(label)
    if len(seen) != len(bag):
        raise ValueError("assembly does not use every piece")
    n = asm.n
    shown = [
        [rotate_tuple(by_label[label].sides, r) for (label, r) in row]
        for row in asm.cells
    ]
    for i in range(n):
        for j in range(n):
            if j + 1 < n and shown[i][j][1] != shown[i][j + 1][3]:
                return False
            if i + 1 < n and shown[i][j][2] != shown[i + 1][j][0]:
                return False
    return True


def write_witness(asm: Assembly) -> str:
    """Witness text: n lines of n entries ``i,j:r``, row-major."""
    lines = []
    for row in asm.cells:
        lines.append(" ".join(f"{lab[0]},{lab[1]}:{r}" for lab, r in row))
    return "\n".join(lines) + "\n"


_ENTRY_RE = re.compile(r"^(-?\d+),(-?\d+):(\d+)$")


def read_witness(text: str) -> Assembly:
    """Parse witness text; inverse of write_witness."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    n = len(lines)
    if n == 0:
        raise WitnessFormatError("witness is empty")
    cells = []
    for li, line in enumerate(lines, start=1):
        toks = line.split()
        if len(toks) != n:
            raise WitnessFormatError(
                f"witness line {li}: expected {n} entries, got {len(toks)}"
            )
        row = []
        for ti, tok in enumerate(toks, start=1):
            m = _ENTRY_RE.match(tok)
            if not m:
                raise WitnessFormatError(
                    f"witness line {li}, entry {ti}: expected 'i,j:r', got {tok!r}"
                )
            i, j, r = int(m.group(1)), int(m.group(2)), int(m.group(3))
            if r > 3:
                raise WitnessFormatError(
                    f"witness line {li}, entry {ti}: rotation {r} outside 0..3"
                )
            row.append(((i, j), r))
        cells.append(tuple(row))
    return Assembly(n=n, cells=tuple(cells))
