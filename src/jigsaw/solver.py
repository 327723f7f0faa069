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

decide is the one decision path for every caller (CLI, sweeps), and it
runs on arrays: the (n*n, 4) side_array and codes ``4 * piece +
rotation``.  A 1x1 puzzle is Unique, then, outside ``exact`` mode, a
swap certificate gives witness codes, then decide_unique plans the
search from the side array.  Each NonUnique witness, from a certificate
or from the search, passes one array check before it is returned: its
pieces form a permutation, every internal edge shows one colour on both
sides, and its half-edge pairing, as int codes ``4 * piece + side``,
differs from the identity's.  The verdict keeps the checked codes and
builds an Assembly only when its witness is read.  verify_assembly runs
the same permutation and colour checks on any bag.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import certificates, kernels
from .core import ROTATIONS, Assembly, GridColoring, Label, PieceBag, assembly_of, rotate_assembly, side_array

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


@functools.lru_cache(maxsize=16)
def _square_order(n: int) -> tuple:
    """Grid cells in growing-square order (see kernels)."""
    cells = []
    for k in range(n):
        cells.extend((i, k) for i in range(k))
        cells.extend((k, j) for j in range(k + 1))
    return tuple(cells)


def _cell_order(n: int, cells) -> tuple:
    """(cell_index, top_pos, left_pos, chain) of a search order over the
    n x n grid, as read-only int64 arrays: the row-major index of each
    position's cell, the positions of its top and left neighbours (-1
    for none), and for each border position after the first, the
    border position before it (else -1).

    Raises ValueError unless cells lists every grid cell once, after its
    top and left neighbours.
    """
    ij = np.array(cells, dtype=np.int64).reshape(-1, 2)
    d = np.arange(len(ij))
    # one padding row and column of -1, which index -1 reaches
    pos = np.full((n + 1, n + 1), -1)
    inside = len(ij) == n * n and bool(((ij >= 0) & (ij < n)).all())
    if inside:
        pos[ij[:, 0], ij[:, 1]] = d
        top_pos, left_pos = pos[ij[:, 0] - 1, ij[:, 1]], pos[ij[:, 0], ij[:, 1] - 1]
    if not inside or (pos[:n, :n] < 0).any() or (np.maximum(top_pos, left_pos) > d).any():
        raise ValueError("cells must list every grid cell once, after its top and left neighbours")
    chain = np.full(len(ij), -1)
    border = np.flatnonzero(np.minimum(top_pos, left_pos) < 0)
    chain[border[1:]] = border[:-1]
    order = ij[:, 0] * n + ij[:, 1], top_pos, left_pos, chain
    for array in order:
        array.setflags(write=False)
    return order


@functools.lru_cache(maxsize=16)
def _square_cell_order(n: int) -> tuple:
    """_cell_order of the growing-square order, shared through the cache."""
    return _cell_order(n, _square_order(n))


def _probe_slots(homes: np.ndarray, bits: int) -> np.ndarray:
    """Slots for keys with these home slots in a linear-probing table of
    2**bits slots, fewer keys than slots, such that the slots from each
    key's home up to its own, cyclically, are all taken.

    Keys placed in order of home slot each take the first free slot at or
    after their home, which is i + max over j <= i of (home_j - j) for
    the i-th; the keys that run past the last slot are then placed first,
    from slot 0.  That second placement wraps no key, since a run from
    slot 0 past the last slot would fill every slot.
    """
    order = np.argsort(homes, kind="stable")
    home = homes[order]
    step = np.arange(len(home))
    slot = step + np.maximum.accumulate(home - step)
    past = slot >= 1 << bits
    if past.any():
        order = np.concatenate((order[past], order[~past]))
        home = np.concatenate((np.zeros(past.sum(), dtype=home.dtype), home[~past]))
        slot = step + np.maximum.accumulate(home - step)
    placed = np.empty_like(slot)
    placed[order] = slot
    return placed


# where arguments() puts the stored-placement buffer
_SOLS = kernels.search_python.__code__.co_varnames.index("sols")


class _SearchPlan:
    """Kernel inputs for an (N, 4) side array in label order, with piece 0
    pinned to rotation 0.

    labels names the pieces for candidates and assemblies (None: the
    grid's own, divmod(k, n) for row k); of_bag plans a PieceBag.
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

    def __init__(
        self, sides: np.ndarray, n: int, cells: Optional[list] = None, labels: Optional[list] = None
    ):
        if len(sides) != n * n:
            raise ValueError(f"bag has {len(sides)} pieces, expected {n * n}")
        self.n = n
        self.labels = labels
        if cells is None:
            self.cells = _square_order(n)
            self.cell_index, top_pos, left_pos, chain = _square_cell_order(n)
        else:
            self.cells = tuple(cells)
            self.cell_index, top_pos, left_pos, chain = _cell_order(n, self.cells)

        colors, ranks, multiplicity = np.unique(sides, return_inverse=True, return_counts=True)
        self.colors = colors.tolist()
        odd = multiplicity % 2
        even = 1 - odd
        self.slack = slack = 4 * n - int(odd.sum())
        width = len(colors) + 2
        wild = width - 2  # a missing neighbour once the budget is spent; wild + 1 before
        root = wild + 1 if slack > 0 else wild
        # row 4 * piece + r: the colour ranks that piece shows turned by r
        top, right, bottom, left = ranks.reshape(-1, 4)[:, ROTATIONS].reshape(-1, 4).T
        tcost, lcost = even[top], even[left]
        keys = np.stack((
            top * width + left, top * width + wild + 1, (wild + 1) * width + left,
            np.where(lcost, -1, top * width + wild), np.where(tcost, -1, wild * width + left),
            np.where(tcost + lcost <= slack, root * width + root, -1),
        ), axis=1)
        keys[1:4] = -1  # the pin: piece 0 shows only rotation 0
        # each key's candidates, in (piece, rotation) order
        keys = keys.ravel()
        order = np.argsort(keys, kind="stable")
        order = order[keys[order] >= 0]
        groups, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
        bits = (2 * len(groups)).bit_length()
        # int64 products may wrap, but the low 32 bits that home_slot keeps are exact
        slot = _probe_slots(kernels.home_slot(groups, bits), bits)
        keys = np.full(1 << bits, -1)
        los = np.zeros(1 << bits, dtype=np.int64)
        keys[slot], los[slot] = groups, starts
        his = los.copy()
        his[slot] += counts

        # each border position after the first charges the one before it
        prev_out = chain if slack < 2 * n else np.full(len(chain), -1)

        to = kernels.as_backend
        self.inputs = (
            to(order // 6), to(keys), to(los), to(his), bits, width, to(top_pos), to(left_pos),
            to(bottom), to(right), slack, to(prev_out), to(tcost), to(lcost),
        )

    @classmethod
    def of_bag(cls, bag: PieceBag, n: int, cells: Optional[list] = None) -> "_SearchPlan":
        """The plan of a bag in any order, its pieces sorted by label."""
        pieces = sorted(bag, key=lambda p: p.label)
        sides = np.array([p.sides for p in pieces], dtype=np.int64).reshape(-1, 4)
        return cls(sides, n, cells, [p.label for p in pieces])

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
        labels = self.labels or [divmod(k, self.n) for k in range(self.n**2)]
        return [(labels[it >> 2], it & 3) for it in map(int, items[los[s]:his[s]])]

    def arguments(self, limit: int, budget: int, max_store: int) -> tuple:
        """Everything kernels.search takes, with fresh scratch buffers."""
        zeros = kernels.zeros
        cells = len(self.cells)
        # the kernel only writes sols, once per stored placement, so an
        # untouched numpy buffer costs no memory on either backend
        return self.inputs + (
            limit, budget, max_store, np.zeros(max_store * cells, dtype=np.int64),
            zeros(cells), zeros(cells), zeros(cells), zeros(cells), zeros(cells),
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
    plan = _SearchPlan.of_bag(bag, n)
    status, count, _, _ = plan.run(limit=-(-limit // 4), budget=2**62, max_store=0)
    return ValidCount(count=4 * count, exact=status == kernels.STATUS_COMPLETE)


def enumerate_assemblies(bag: PieceBag, n: int, limit: int = 10_000) -> list[Assembly]:
    """All valid assemblies (at most `limit`), in search order.

    Each assembly the pinned search finds comes with its three global
    rotations right after it.
    """
    pinned = -(-limit // 4)
    plan = _SearchPlan.of_bag(bag, n)
    out = []
    for orient in plan.run(limit=pinned, budget=2**62, max_store=pinned)[3]:
        asm = assembly_of(orient, n, plan.labels)
        for _ in range(4):
            out.append(asm)
            asm = rotate_assembly(asm)
    return out[:limit]


@dataclass(frozen=True)
class UniquenessVerdict:
    """A verdict of decide.

    A NonUnique verdict keeps its checked witness as orient, one code
    ``4 * piece + rotation`` per row-major cell, where piece k is the
    grid's piece at divmod(k, n).  witness is the same placement as an
    Assembly, built when it is first read.
    """

    kind: str  # "unique" | "nonunique" | "undetermined"
    orient: Optional[tuple] = None
    nodes: int = 0
    reason: str = ""
    certificate: Union[certificates.RotationPair, Label, None] = None

    @functools.cached_property
    def witness(self) -> Optional[Assembly]:
        return None if self.orient is None else assembly_of(self.orient, math.isqrt(len(self.orient)))

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
            orient = certificates.swap_orientations(sides, cert, gc.n)
            problem = _witness_problem(sides, orient, gc.n)
            if problem is not None:
                raise AssertionError(f"swap witness {problem}")
            return UniquenessVerdict(
                kind="nonunique", orient=tuple(orient.tolist()), reason="certificate", certificate=cert
            )
        if mode == "certificate":
            return UniquenessVerdict(kind="undetermined", reason="no certificate found")
    return decide_unique(gc, budget=budget)


def decide_unique(gc: GridColoring, budget: int = DEFAULT_NODE_BUDGET) -> UniquenessVerdict:
    """Decide whether gc rebuilds only as itself (up to global rotation).

    NonUnique verdicts carry witness codes that have passed the witness
    check.  If the node budget runs out the verdict is Undetermined;
    raising the budget can only turn Undetermined into a definite
    answer, never flip a definite one.
    """
    sides = side_array(gc)
    plan = _SearchPlan(sides, gc.n)
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
    for orient in placements:
        problem = _witness_problem(sides, orient, gc.n)
        if problem is None:
            return UniquenessVerdict(kind="nonunique", orient=tuple(orient.tolist()), nodes=nodes)
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
    rotation`` per cell, row-major, as swap_orientations and the search
    give it, and a negative code for a piece that is not on the grid.
    A witness uses every piece once, shows one colour on both sides of
    every internal edge, and pairs half-edges differently from the
    identity placement.
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
