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

decide is the one decision path for every caller (CLI, sweeps): a 1x1
puzzle is Unique, then, outside ``exact`` mode, a swap certificate and
its witness, then decide_unique.  Each NonUnique witness, from a
certificate or from the search, passes one array check before it is
returned: its pieces form a permutation, every internal edge shows one
colour on both sides, and its half-edge pairing, as int codes
``4 * piece + side``, differs from the identity's.  verify_assembly
runs the same permutation and colour checks on any bag.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import certificates, kernels
from .core import (
    Assembly,
    GridColoring,
    Label,
    PieceBag,
    pieces_of,
    rotate_assembly,
    rotate_tuple,
    side_array,
)

DEFAULT_COUNT_LIMIT = 1_000_000
DEFAULT_NODE_BUDGET = 50_000_000

MODES = ("exact", "certificate", "auto")

__all__ = [
    "MODES",
    "ValidCount",
    "count_valid",
    "enumerate_assemblies",
    "UniquenessVerdict",
    "decide",
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


# where arguments() puts the stored-placement buffer
_SOLS = kernels.search_python.__code__.co_varnames.index("sols")


class _SearchPlan:
    """Kernel inputs for a piece bag, with piece 0 pinned to rotation 0.

    cells is the search order, growing-square by default; every cell's
    top and left neighbours must come before it.  The candidate table
    has one slot per (top, left) pair that some orientation shows, plus
    the wildcard pairs of cells with a missing neighbour, so its size
    is linear in the number of pieces.

    slack bounds the border budget of the kernel: with m_c sides of
    colour c in the bag, every assembly shows colour c on its border a
    number of times of the parity of m_c, so at least once for each odd
    m_c, and its 4n border sides show at most ``slack = 4n - #(colours
    with odd m_c)`` sides of even colours.  The search counts those among
    the tops of row 0 and the lefts of column 0; when slack >= 2n, all
    of them fit and nothing is counted.
    """

    def __init__(self, bag: PieceBag, n: int, cells: Optional[list] = None):
        if len(bag) != n * n:
            raise ValueError(f"bag has {len(bag)} pieces, expected {n * n}")
        self.n = n
        self.pieces = sorted(bag, key=lambda p: p.label)
        self.cells = _square_order(n) if cells is None else list(cells)
        self.cell_index = np.array([i * n + j for i, j in self.cells], dtype=np.int64)
        pos = {cell: d for d, cell in enumerate(self.cells)}
        top_pos = [pos.get((i - 1, j), -1) for i, j in self.cells]
        left_pos = [pos.get((i, j - 1), -1) for i, j in self.cells]
        if sorted(self.cells) != [(i, j) for i in range(n) for j in range(n)] or any(
            max(t, l) > d for d, (t, l) in enumerate(zip(top_pos, left_pos))
        ):
            raise ValueError("cells must list every grid cell once, after its top and left neighbours")

        multiplicity = Counter(c for p in self.pieces for c in p.sides)
        self.colors = sorted(multiplicity)
        self.slack = slack = 4 * n - sum(m & 1 for m in multiplicity.values())
        cmap = {c: k for k, c in enumerate(self.colors)}
        even = [1 - multiplicity[c] % 2 for c in self.colors]
        width = len(self.colors) + 2
        wild = width - 2  # a missing neighbour once the budget is spent; wild + 1 before
        root = wild + 1 if slack > 0 else wild
        shown = [
            [cmap[c] for c in rotate_tuple(p.sides, r)] for p in self.pieces for r in range(4)
        ]
        groups: dict = {}
        for it, (t, _, _, l) in enumerate(shown):
            if 0 < it < 4:  # the pin: piece 0 shows only rotation 0
                continue
            keys = [t * width + l, t * width + wild + 1, (wild + 1) * width + l]
            if not even[l]:
                keys.append(t * width + wild)
            if not even[t]:
                keys.append(wild * width + l)
            if even[t] + even[l] <= slack:
                keys.append(root * width + root)
            for key in keys:
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

        # each border position after the first charges the one before it
        prev_out = [-1] * len(self.cells)
        if slack < 2 * n:
            border = [d for d, (t, l) in enumerate(zip(top_pos, left_pos)) if min(t, l) < 0]
            for p, d in zip(border, border[1:]):
                prev_out[d] = p

        to = kernels.as_backend
        self.inputs = (
            to(items), to(keys), to(los), to(his), bits, width, to(top_pos), to(left_pos),
            to([sh[2] for sh in shown]), to([sh[1] for sh in shown]),
            slack, to(prev_out), to([even[sh[0]] for sh in shown]), to([even[sh[3]] for sh in shown]),
        )

    def candidates(self, top, left, room=None) -> list:
        """(label, rotation) of each orientation the kernel tries where the
        neighbours show colours top and left (None: no neighbour there)
        and room of the border budget is left (default slack), in search
        order.  Cell (0, 0) is always searched with the whole slack."""
        items, keys, los, his, bits, width = self.inputs[:6]
        room = self.slack if room is None else room
        code = {c: k for k, c in enumerate(self.colors)}
        code[None] = width - 1 if room > 0 else width - 2
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
        # the kernel only writes sols, once per stored placement, so an
        # untouched numpy buffer costs no memory on either backend
        return self.inputs + (
            limit, budget, max_store, np.zeros(max_store * cells, dtype=np.int64),
            zeros(len(self.pieces)), zeros(cells), zeros(cells), zeros(cells), zeros(cells),
        )

    def run(self, limit: int, budget: int, max_store: int):
        """(status, pinned count, nodes, placements).

        Row k of placements is the k-th stored assembly, one orientation
        ``4 * piece + rotation`` per cell in row-major order.
        """
        args = self.arguments(limit, budget, max_store)
        status, count, nodes, stored = kernels.search(*args)
        found = args[_SOLS][: stored * len(self.cells)].reshape(stored, len(self.cells))
        placements = np.empty_like(found)
        placements[:, self.cell_index] = found
        return status, count, nodes, placements

    def assembly(self, orient: np.ndarray) -> Assembly:
        """The Assembly of one row of placements."""
        n = self.n
        cells = [(self.pieces[it >> 2].label, it & 3) for it in orient.tolist()]
        return Assembly(n=n, cells=tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))


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
    plan = _SearchPlan(bag, n)
    out = []
    for orient in plan.run(limit=pinned, budget=2**62, max_store=pinned)[3]:
        asm = plan.assembly(orient)
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
    certificate: Union[certificates.RotationPair, Label, None] = None

    @property
    def is_unique(self) -> bool:
        return self.kind == "unique"


def decide(gc: GridColoring, mode: str = "auto", budget: int = DEFAULT_NODE_BUDGET) -> UniquenessVerdict:
    """The uniqueness verdict of gc in one of MODES.

    ``exact`` runs decide_unique.  ``certificate`` looks only for a
    rotation-equivalent pair or a symmetric piece and reports NonUnique
    on success, Undetermined otherwise.  ``auto`` tries the certificate
    first and falls back to decide_unique.  A 1x1 puzzle is Unique in
    every mode.  Every NonUnique witness, from a certificate or from the
    search, has passed the witness check; a failure raises
    AssertionError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if gc.n == 1:
        return UniquenessVerdict(kind="unique")
    if mode != "exact":
        sides = side_array(gc)
        cert = certificates.find_certificate(sides, gc.n)
        if cert is not None:
            witness = certificates.build_swap_witness(gc, cert)
            problem = _witness_problem(sides, _grid_orientations(witness, gc.n), gc.n)
            if problem is not None:
                raise AssertionError(f"swap witness {problem}")
            return UniquenessVerdict(
                kind="nonunique", witness=witness, reason="certificate", certificate=cert
            )
        if mode == "certificate":
            return UniquenessVerdict(kind="undetermined", reason="no certificate found")
    return decide_unique(gc, budget=budget)


def decide_unique(gc: GridColoring, budget: int = DEFAULT_NODE_BUDGET) -> UniquenessVerdict:
    """Decide whether gc rebuilds only as itself (up to global rotation).

    NonUnique verdicts carry a witness assembly that has passed the
    witness check.  If the node budget runs out the verdict is
    Undetermined; raising the budget can only turn Undetermined into a
    definite answer, never flip a definite one.
    """
    plan = _SearchPlan(pieces_of(gc), gc.n)
    status, count, nodes, placements = plan.run(limit=2, budget=budget, max_store=2)
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
    sides = side_array(gc)
    for orient in placements:
        problem = _witness_problem(sides, orient, gc.n)
        if problem is None:
            return UniquenessVerdict(kind="nonunique", witness=plan.assembly(orient), nodes=nodes)
        if problem != _SAME_PAIRING:
            raise AssertionError(f"search witness {problem}")
    raise AssertionError("search reported extra assemblies but no distinct pairing")


_SAME_PAIRING = "has the identity's edge pairing"


def _is_permutation(piece: np.ndarray, count: int) -> bool:
    """Whether piece, one bag index per cell, uses each of range(count) once."""
    return len(piece) == count and bool((np.sort(piece) == np.arange(count)).all())


@functools.lru_cache(maxsize=8)
def _internal_edges(n: int) -> tuple:
    """(a, b, d): every internal edge of the n x n grid joins cell a to
    cell b, which lies in world direction d (1 right, 2 down) of a."""
    cell = np.arange(n * n).reshape(n, n)
    a = np.concatenate((cell[:, :-1].ravel(), cell[:-1].ravel()))
    b = np.concatenate((cell[:, 1:].ravel(), cell[1:].ravel()))
    edges = a, b, np.repeat([1, 2], n * (n - 1))
    for array in edges:  # shared by every caller through the cache
        array.setflags(write=False)
    return edges


def _touching(orient: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-edges on either side of every internal edge, as codes
    ``4 * piece + side``, for orientations ``4 * piece + rotation`` in
    row-major cell order."""
    a, b, d = _internal_edges(n)
    # a piece turned by r shows side (d - r) % 4 at direction d, and r = orient % 4
    oa, ob = orient[a], orient[b]
    return (oa & ~3) + (d - oa) % 4, (ob & ~3) + (d + 2 - ob) % 4


def _witness_problem(sides: np.ndarray, orient: np.ndarray, n: int) -> Optional[str]:
    """What keeps orient from witnessing non-uniqueness, or None.

    sides is the (n*n, 4) side array; orient holds ``4 * piece +
    rotation`` per cell, row-major, and a piece of -1 for a label that
    is not on the grid.  A witness uses every piece once, shows one
    colour on both sides of every internal edge, and pairs half-edges
    differently from the identity placement.
    """
    count = len(sides)
    if not _is_permutation(orient >> 2, count):
        return "does not place every piece once"
    a, b = _touching(orient, n)
    mate = np.full(4 * count, -1)  # the half-edge touching each half-edge
    mate[a] = b
    mate[b] = a
    # both pairings have one pair per internal edge, so they are equal
    # when every pair of the identity's is one of orient's
    ia, ib = _touching(4 * np.arange(count), n)
    if (mate[ia] == ib).all():
        return _SAME_PAIRING
    colours = sides.ravel()
    if not np.array_equal(colours[a], colours[b]):
        return "shows two colours on an internal edge"
    return None


def _grid_orientations(asm: Assembly, n: int) -> np.ndarray:
    """orient of an assembly of the n x n grid's pieces (labels (i, j)).

    An assembly of another size has too few cells or repeats a piece.
    """
    return np.array(
        [
            4 * (i * n + j) + r if 0 <= i < n and 0 <= j < n else r - 4
            for row in asm.cells
            for (i, j), r in row
        ],
        dtype=np.int64,
    )


def verify_assembly(bag: PieceBag, asm: Assembly) -> bool:
    """Check an assembly directly against the bag, without any index.

    Every piece must be used exactly once and every internal edge must
    show one colour on both sides.  Label mismatches raise ValueError;
    colour mismatches just return False.
    """
    index = {p.label: k for k, p in enumerate(bag)}
    labels = [label for row in asm.cells for label, _ in row]
    piece = np.array([index.get(label, -1) for label in labels], dtype=np.int64)
    if not _is_permutation(piece, len(bag)):
        seen = set()
        for label, k in zip(labels, piece.tolist()):
            if k < 0:
                raise ValueError(f"assembly uses unknown label {label}")
            if k in seen:
                raise ValueError(f"assembly repeats label {label}")
            seen.add(k)
        raise ValueError("assembly does not use every piece")
    rot = np.array([r for row in asm.cells for _, r in row], dtype=np.int64)
    a, b = _touching(4 * piece + rot, asm.n)
    colours = np.array([p.sides for p in bag], dtype=np.int64).reshape(-1)
    return bool(np.array_equal(colours[a], colours[b]))


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
