"""Fast non-uniqueness certificates for large puzzles.

Exhaustive search is hopeless beyond small n, but one cheap structural
accident already forces a second reconstruction: two pieces whose side
tuples are cyclic shifts of each other can trade places (with
compensating rotations), and a piece whose tuple has a nontrivial
cyclic symmetry can be turned in place.  Either move reproduces every
shown colour while touching different physical half-edges, so the new
assembly is valid and its pairing differs from the original.

The decision path stays on the (N, 4) side array: scan finds a
certificate and swap_orientations turns it into witness codes
``4 * piece + rotation``, which solver.decide checks.
build_swap_witness is the same witness as an Assembly.

birthday_upper_bound gives the probability that no two pieces on the
chessboard half of the grid (cells with i+j even, which share no slots)
get identical tuples; when it is tiny, certificates almost always
exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import ROTATIONS, Assembly, GridColoring, Label, PieceBag, assembly_of, side_array

__all__ = [
    "RotationPair",
    "find_rotation_equivalent_pair",
    "find_symmetric_piece",
    "swap_orientations",
    "build_swap_witness",
    "scan",
    "find_certificate",
    "birthday_upper_bound",
]


@dataclass(frozen=True)
class RotationPair:
    """Labels of two pieces with rotate_tuple(sides_a, shift) == sides_b."""

    label_a: Label
    label_b: Label
    shift: int


def scan(sides: np.ndarray) -> tuple[Optional[tuple[int, int, int]], Optional[int]]:
    """Both certificate searches over an (N, 4) array of side tuples.

    Returns ``(pair, symmetric)``.  pair is ``(a, b, shift)`` with
    ``rotate_tuple(sides[a], shift) == sides[b]``: b is the first row
    whose canonical form (least rotation) an earlier row has, and a is
    the first row with that form.  symmetric is the first row that
    turning by 180 degrees leaves unchanged.  Either is None when there
    is none.

    The pair search reads growing prefixes of the rows, since the first
    repeat within a prefix is the first repeat overall; when pairs are
    likely it stops long before the end.
    """
    symmetric = np.flatnonzero((sides[:, :2] == sides[:, 2:]).all(axis=1))
    symmetric = int(symmetric[0]) if symmetric.size else None
    rows = 1024
    while True:
        pair = _first_pair(sides[:rows])
        if pair is not None or rows >= len(sides):
            return pair, symmetric
        rows *= 4


def _first_pair(sides: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The pair of scan over all of sides.

    Colours are ranked first, so the lexicographic int64 code of a
    rotation needs only the number of distinct colours to fit.
    """
    count = len(sides)
    if count == 0:
        return None
    ranks = np.unique(sides, return_inverse=True)[1].reshape(count, 4)
    k = int(ranks.max()) + 1
    shown = ranks[:, ROTATIONS]  # (N, 4 rotations, 4 directions)
    hi = shown[..., 0] * k + shown[..., 1]
    lo = shown[..., 2] * k + shown[..., 3]
    if k**4 < 2**63:
        codes = hi * (k * k) + lo
    else:  # rank the halves, each below 4N, to keep the order in int64
        hi = np.unique(hi, return_inverse=True)[1].reshape(count, 4)
        lo = np.unique(lo, return_inverse=True)[1].reshape(count, 4)
        codes = hi * (int(lo.max()) + 1) + lo
    shift = codes.argmin(axis=1)  # the first, i.e. smallest, rotation
    _, first, inverse = np.unique(codes.min(axis=1), return_index=True, return_inverse=True)
    first = first[inverse.reshape(-1)]  # first row with each row's canonical form
    repeats = np.flatnonzero(first != np.arange(count))
    if not repeats.size:
        return None
    b = int(repeats[0])
    a = int(first[b])
    return a, b, int(shift[a] - shift[b]) % 4


def find_certificate(sides: np.ndarray, n: int) -> Union[RotationPair, Label, None]:
    """The certificate for an n x n grid whose side_array is sides: its
    first rotation-equivalent pair, else its first symmetric piece."""
    pair, symmetric = scan(sides)
    if pair is not None:
        a, b, shift = pair
        return RotationPair(label_a=divmod(a, n), label_b=divmod(b, n), shift=shift)
    return None if symmetric is None else divmod(symmetric, n)


def _bag_scan(bag: PieceBag):
    return scan(np.array([p.sides for p in bag], dtype=np.int64).reshape(-1, 4))


def find_rotation_equivalent_pair(bag: PieceBag) -> Optional[RotationPair]:
    """First pair of distinct pieces equal up to rotation, in bag order.

    b is the first piece whose canonical form an earlier piece has, and
    a the first piece with that form.  Returns None iff all canonical
    tuples are distinct.
    """
    pair = _bag_scan(bag)[0]
    if pair is None:
        return None
    a, b, shift = pair
    return RotationPair(label_a=bag[a].label, label_b=bag[b].label, shift=shift)


def find_symmetric_piece(bag: PieceBag) -> Optional[Label]:
    """First piece whose tuple has a nontrivial cyclic symmetry."""
    k = _bag_scan(bag)[1]
    return None if k is None else bag[k].label


def swap_orientations(
    sides: np.ndarray, certificate: Union[RotationPair, Label], n: int
) -> np.ndarray:
    """The witness of a certificate for an n x n grid whose side_array is
    sides, as codes ``4 * piece + rotation``, one per row-major cell.

    For a RotationPair the two pieces swap cells with compensating
    rotations; for a symmetric piece's label the piece is rotated in
    place by its symmetry period.  Shown colours are unchanged either
    way, so the witness is valid; the physical pairing differs from the
    identity whenever n >= 2.  Raises ValueError for stale certificates
    (labels missing, tuples no longer matching) and for 1x1 puzzles,
    where no rearrangement can change the pairing.
    """
    if n < 2:
        raise ValueError("a 1x1 puzzle has no pairing-changing witness")
    orient = 4 * np.arange(n * n)  # the identity

    def row(label: Label) -> int:
        i, j = label
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"stale certificate: label {label} not on the grid")
        return i * n + j

    if isinstance(certificate, RotationPair):
        a, b, shift = row(certificate.label_a), row(certificate.label_b), certificate.shift
        if a == b:
            raise ValueError("stale certificate: pair labels coincide")
        if shift not in range(4) or (sides[a, ROTATIONS[shift]] != sides[b]).any():
            raise ValueError("stale certificate: tuples are not shifts of each other")
        # b sits at a's cell showing sides[a]; a sits at b's cell showing sides[b]
        orient[a] = 4 * b + (4 - shift) % 4
        orient[b] = 4 * a + shift
    else:
        k = row(certificate)
        # the symmetry period: the least turn that leaves the piece as it is
        period = next((r for r in (1, 2) if (sides[k, ROTATIONS[r]] == sides[k]).all()), 0)
        if not period:
            raise ValueError(f"stale certificate: piece {certificate} is not symmetric")
        orient[k] += period
    return orient


def build_swap_witness(
    gc: GridColoring, certificate: Union[RotationPair, Label]
) -> Assembly:
    """The witness of swap_orientations for gc as an Assembly."""
    return assembly_of(swap_orientations(side_array(gc), certificate, gc.n), gc.n)


def birthday_upper_bound(n: int, q: int) -> float:
    """Upper bound on Pr[no identical pair among the chessboard pieces].

    The ~n^2/2 pieces at cells with i+j even share no slots, so their
    tuples are iid uniform over q^4 values; collision-free probability
    is at most exp(-(n^4 - 2 n^2) / (8 q^4)).  Requires n >= 2.
    """
    if n < 2:
        raise ValueError(f"bound needs n >= 2, got {n}")
    if q < 1:
        raise ValueError(f"colour count must be >= 1, got {q}")
    return math.exp(-(n**4 - 2 * n**2) / (8 * q**4))
