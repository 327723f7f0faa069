"""Independent reference implementations used only by tests.

Deliberately naive: plain tuples, dict lookups and itertools, sharing
no code with the package's solver.
"""

import itertools
from collections import Counter

import numpy as np

from jigsaw.core import Assembly, PieceBag, edge_pairing, identity_assembly, rotate_tuple


def brute_force_n2(bag: PieceBag) -> list[Assembly]:
    """All valid 2x2 assemblies by sheer enumeration: 4! placements times
    4^4 rotations, validity checked straight off the side tuples."""
    assert len(bag) == 4
    out = []
    for perm in itertools.permutations(bag.pieces):
        for rots in itertools.product(range(4), repeat=4):
            shown = [rotate_tuple(p.sides, r) for p, r in zip(perm, rots)]
            # cells in row-major order: 0 1 / 2 3
            if shown[0][1] != shown[1][3]:
                continue
            if shown[2][1] != shown[3][3]:
                continue
            if shown[0][2] != shown[2][0]:
                continue
            if shown[1][2] != shown[3][0]:
                continue
            cells = (
                ((perm[0].label, rots[0]), (perm[1].label, rots[1])),
                ((perm[2].label, rots[2]), (perm[3].label, rots[3])),
            )
            out.append(Assembly(n=2, cells=cells))
    return out


def brute_force_recursive(bag: PieceBag, n: int, cap: int = 10**6) -> list[Assembly]:
    """Index-free recursive backtracker, any n: at each row-major cell it
    tries every unused piece in every rotation against the shown colours
    of its left and top neighbours.  Stops after `cap` assemblies."""
    pieces = sorted(bag.pieces, key=lambda p: p.label)
    shown_of = [[rotate_tuple(p.sides, r) for r in range(4)] for p in pieces]
    found: list[Assembly] = []
    grid: dict = {}  # (i, j) -> (piece index, rotation)
    used = [False] * len(pieces)

    def place(k: int) -> bool:
        if len(found) >= cap:
            return True
        if k == n * n:
            cells = tuple(
                tuple((pieces[grid[(i, j)][0]].label, grid[(i, j)][1]) for j in range(n))
                for i in range(n)
            )
            found.append(Assembly(n=n, cells=cells))
            return False
        i, j = divmod(k, n)
        left = shown_of[grid[(i, j - 1)][0]][grid[(i, j - 1)][1]][1] if j > 0 else None
        top = shown_of[grid[(i - 1, j)][0]][grid[(i - 1, j)][1]][2] if i > 0 else None
        for idx in range(len(pieces)):
            if used[idx]:
                continue
            for r in range(4):
                shown = shown_of[idx][r]
                if left is not None and shown[3] != left:
                    continue
                if top is not None and shown[0] != top:
                    continue
                grid[(i, j)] = (idx, r)
                used[idx] = True
                if place(k + 1):
                    return True
                used[idx] = False
                del grid[(i, j)]
        return False

    place(0)
    return found


def _canonical(t):
    """(least cyclic shift, smallest rotation reaching it, number of distinct shifts)."""
    shifts = [rotate_tuple(t, r) for r in range(4)]
    canon = min(shifts)
    return canon, shifts.index(canon), len(set(shifts))


def rotation_pair_reference(bag: PieceBag):
    """Per-piece dict scan: (label_a, label_b, shift) of the first piece whose
    canonical form occurred before, with the first piece that had it."""
    seen: dict = {}
    for piece in bag:
        canon, shift_b, _ = _canonical(piece.sides)
        if canon in seen:
            label_a, shift_a = seen[canon]
            return label_a, piece.label, (shift_a - shift_b) % 4
        seen[canon] = (piece.label, shift_b)
    return None


def symmetric_piece_reference(bag: PieceBag):
    """Label of the first piece with fewer than four distinct rotations."""
    for piece in bag:
        if _canonical(piece.sides)[2] < 4:
            return piece.label
    return None


def verify_assembly_reference(bag: PieceBag, asm: Assembly) -> bool:
    """Label checks in cell order (ValueError), then every internal edge
    compared on the shown tuples."""
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
    shown = [[rotate_tuple(by_label[label].sides, r) for label, r in row] for row in asm.cells]
    for i in range(n):
        for j in range(n):
            if j + 1 < n and shown[i][j][1] != shown[i][j + 1][3]:
                return False
            if i + 1 < n and shown[i][j][2] != shown[i + 1][j][0]:
                return False
    return True


def is_witness_reference(bag: PieceBag, asm: Assembly) -> bool:
    """A valid assembly whose frozenset edge pairing differs from the identity's;
    False, not an exception, for label errors."""
    try:
        valid = verify_assembly_reference(bag, asm)
    except ValueError:
        return False
    return valid and edge_pairing(asm) != edge_pairing(identity_assembly(asm.n))


def grid_orientations(asm: Assembly, n: int) -> np.ndarray:
    """The codes ``4 * piece + rotation`` of an assembly of the n x n grid's
    pieces, piece k being the one labelled divmod(k, n); a label off the grid
    gives piece -1.  An assembly of another size has too few cells or
    repeats a piece."""
    return np.array(
        [
            4 * (i * n + j) + r if 0 <= i < n and 0 <= j < n else r - 4
            for row in asm.cells
            for (i, j), r in row
        ],
        dtype=np.int64,
    )


def plan_reference(sides, n: int):
    """The search plan's table contents by dict grouping, as built before
    the plan ran on arrays: ``(slack, width, groups, columns)``.

    sides is an (N, 4) side array in label order.  groups maps each table
    key to its candidates ``4 * piece + rotation`` in (piece, rotation)
    order; columns are the kernel's per-orientation bottoms, rights,
    tcost and lcost.
    """
    tuples = [tuple(t) for t in np.asarray(sides).tolist()]
    multiplicity = Counter(c for t in tuples for c in t)
    colors = sorted(multiplicity)
    slack = 4 * n - sum(m & 1 for m in multiplicity.values())
    cmap = {c: k for k, c in enumerate(colors)}
    even = [1 - multiplicity[c] % 2 for c in colors]
    width = len(colors) + 2
    wild = width - 2
    root = wild + 1 if slack > 0 else wild
    shown = [[cmap[c] for c in rotate_tuple(t, r)] for t in tuples for r in range(4)]
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
    columns = (
        [sh[2] for sh in shown], [sh[1] for sh in shown],
        [even[sh[0]] for sh in shown], [even[sh[3]] for sh in shown],
    )
    return slack, width, groups, columns
