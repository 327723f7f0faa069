"""Grid colourings, pieces, assemblies and edge pairings.

Model
-----
An n x n puzzle is a colouring of its edge slots.  There are (n+1)*n
horizontal slots (``h[i][j]`` sits above the piece at row i, column j;
row n is the bottom border) and n*(n+1) vertical slots (``v[i][j]`` sits
left of the piece at row i, column j; column n is the right border), so
2n^2 + 2n slots in total.  Colours are integers in ``[0, q)``.

The piece cut out at (i, j) reads its sides clockwise from the top:

    (h[i][j], v[i][j+1], h[i+1][j], v[i][j])        # (top, right, bottom, left)

Rotation convention (used everywhere in this package): rotation r in
{0, 1, 2, 3} turns the physical piece clockwise by 90*r degrees.  The
colour shown at world direction d (0=up, 1=right, 2=down, 3=left) by a
piece with side tuple t under rotation r is ``t[(d - r) % 4]``, i.e. the
shown tuple is ``rotate_tuple(t, r)``.  Equivalently, the physical side
facing world direction d is side index ``ROTATIONS[r][d] = (d - r) % 4``.

Array form: the decision path works on the (n*n, 4) ``side_array`` and
on codes ``4 * piece + rotation``, one per row-major cell, where piece k
is row k, label ``divmod(k, n)``; assembly_of turns codes into an Assembly.

Randomness: puzzles are drawn with numpy's PCG64 generator seeded
directly with the given 64-bit seed; horizontal slots are drawn first
(row-major), then vertical slots (row-major).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

Label = tuple[int, int]
Sides = tuple[int, int, int, int]

__all__ = [
    "GridColoring",
    "Piece",
    "PieceBag",
    "CanonicalPiece",
    "Assembly",
    "EdgePairing",
    "PuzzleFormatError",
    "generate_puzzle",
    "ROTATIONS",
    "side_array",
    "pieces_of",
    "rotate_tuple",
    "canonical_piece",
    "assembly_of",
    "identity_assembly",
    "rotate_assembly",
    "edge_pairing",
    "write_puzzle",
    "read_puzzle",
]


class PuzzleFormatError(ValueError):
    """Raised when a puzzle file does not match the expected format."""


@dataclass(frozen=True)
class GridColoring:
    """A full edge colouring of an n x n grid with q colours.

    h has shape (n+1, n), v has shape (n, n+1); both arrays are
    read-only.
    """

    n: int
    q: int
    h: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"grid side must be >= 1, got {self.n}")
        if self.q < 1:
            raise ValueError(f"colour count must be >= 1, got {self.q}")
        h = np.asarray(self.h, dtype=np.int64)
        v = np.asarray(self.v, dtype=np.int64)
        if h.shape != (self.n + 1, self.n):
            raise ValueError(f"h must have shape {(self.n + 1, self.n)}, got {h.shape}")
        if v.shape != (self.n, self.n + 1):
            raise ValueError(f"v must have shape {(self.n, self.n + 1)}, got {v.shape}")
        for name, arr in (("h", h), ("v", v)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.q):
                raise ValueError(f"{name} contains colours outside [0, {self.q})")
        h.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)

    @property
    def slot_count(self) -> int:
        return 2 * self.n * self.n + 2 * self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridColoring):
            return NotImplemented
        return (
            self.n == other.n
            and self.q == other.q
            and np.array_equal(self.h, other.h)
            and np.array_equal(self.v, other.v)
        )


@dataclass(frozen=True)
class Piece:
    """A labelled piece; label is the original (row, col) position."""

    label: Label
    sides: Sides


@dataclass(frozen=True)
class PieceBag:
    """The multiset of pieces handed to a solver, in a fixed order.

    Order never affects verdicts (solvers sort candidates by label) but
    keeps every run reproducible.  Labels must be unique.
    """

    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        labels = [p.label for p in self.pieces]
        if len(set(labels)) != len(labels):
            raise ValueError("piece labels must be unique")

    def __len__(self) -> int:
        return len(self.pieces)

    def __iter__(self) -> Iterator[Piece]:
        return iter(self.pieces)

    def __getitem__(self, k: int) -> Piece:
        return self.pieces[k]

    def by_label(self) -> dict[Label, Piece]:
        return {p.label: p for p in self.pieces}


@dataclass(frozen=True)
class CanonicalPiece:
    """Rotation-invariant form of a side tuple.

    canon is the lexicographically least cyclic shift, shift is the
    smallest rotation r with rotate_tuple(t, r) == canon, and
    symmetry_order is the size of the cyclic stabiliser (1, 2 or 4).
    """

    canon: Sides
    shift: int
    symmetry_order: int


@dataclass(frozen=True)
class Assembly:
    """A placement: cells[i][j] = (label, rotation) for each grid cell."""

    n: int
    cells: tuple[tuple[tuple[Label, int], ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != self.n or any(len(row) != self.n for row in self.cells):
            raise ValueError("cells must form an n x n grid")
        for row in self.cells:
            for _, r in row:
                if r not in (0, 1, 2, 3):
                    raise ValueError(f"rotation must be in 0..3, got {r}")


@dataclass(frozen=True)
class EdgePairing:
    """Which physical half-edges touch in an assembled puzzle.

    A half-edge is (label, side index in the piece's own frame).  pairs
    holds one frozenset of two half-edges per internal edge (2n(n-1) of
    them); singles holds the 4n half-edges on the border.
    """

    pairs: frozenset[frozenset]
    singles: frozenset[tuple[Label, int]]


def generate_puzzle(n: int, q: int, seed: int) -> GridColoring:
    """Draw every slot colour iid uniform from [0, q), seeded."""
    if n < 1:
        raise ValueError(f"grid side must be >= 1, got {n}")
    if q < 1:
        raise ValueError(f"colour count must be >= 1, got {q}")
    rng = np.random.Generator(np.random.PCG64(seed))
    h = rng.integers(0, q, size=(n + 1, n), dtype=np.int64)
    v = rng.integers(0, q, size=(n, n + 1), dtype=np.int64)
    return GridColoring(n=n, q=q, h=h, v=v)


def side_array(gc: GridColoring) -> np.ndarray:
    """Every piece's side tuple as one (n*n, 4) int64 array.

    Row i*n + j holds (top, right, bottom, left) of the piece at (i, j),
    so the rows are in label order.
    """
    h, v = gc.h, gc.v
    return np.stack((h[:-1], v[:, 1:], h[1:], v[:, :-1]), axis=-1).reshape(-1, 4)


def pieces_of(gc: GridColoring) -> PieceBag:
    """Cut the colouring into labelled pieces, row-major."""
    n = gc.n
    pieces = tuple(
        Piece(label=divmod(k, n), sides=tuple(sides))
        for k, sides in enumerate(side_array(gc).tolist())
    )
    return PieceBag(pieces=pieces)


# ROTATIONS[r][d]: the side a piece turned by r shows at world direction d;
# as a numpy index, sides[..., ROTATIONS] gives every rotation's shown tuple
ROTATIONS = tuple(tuple((d - r) % 4 for d in range(4)) for r in range(4))


def rotate_tuple(t: Sides, r: int) -> Sides:
    """Side tuple shown after turning the piece clockwise by 90*r degrees.

    Acts as a group: rotate_tuple(rotate_tuple(t, a), b) ==
    rotate_tuple(t, (a + b) % 4).
    """
    if r not in (0, 1, 2, 3):
        raise ValueError(f"rotation must be in 0..3, got {r}")
    return tuple(t[side] for side in ROTATIONS[r])


def canonical_piece(t: Sides) -> CanonicalPiece:
    """Least cyclic shift of t plus the shift achieving it and its symmetry."""
    shifts = [rotate_tuple(t, r) for r in range(4)]
    canon = min(shifts)
    shift = shifts.index(canon)
    symmetry_order = 4 // len(set(shifts))
    return CanonicalPiece(canon=canon, shift=shift, symmetry_order=symmetry_order)


def assembly_of(orient, n: int, labels: Optional[list] = None) -> Assembly:
    """The Assembly that puts orientation ``4 * piece + rotation`` orient[k]
    at row-major cell k; piece p has label labels[p], by default divmod(p, n)."""
    cells = [(labels[o >> 2] if labels else divmod(o >> 2, n), o & 3) for o in map(int, orient)]
    return Assembly(n=n, cells=tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))


def identity_assembly(n: int) -> Assembly:
    """Every piece back at its original cell, unrotated."""
    cells = tuple(tuple(((i, j), 0) for j in range(n)) for i in range(n))
    return Assembly(n=n, cells=cells)


def rotate_assembly(asm: Assembly) -> Assembly:
    """Turn a whole assembly clockwise by 90 degrees.

    The piece at (i, j) moves to (j, n-1-i) and its rotation increases
    by 1; the physical half-edge pairing is unchanged.
    """
    n = asm.n
    grid: list[list[Optional[tuple[Label, int]]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            label, r = asm.cells[i][j]
            grid[j][n - 1 - i] = (label, (r + 1) % 4)
    return Assembly(n=n, cells=tuple(tuple(row) for row in grid))  # type: ignore[arg-type]


def edge_pairing(asm: Assembly) -> EdgePairing:
    """Physical half-edge pairing realised by an assembly.

    Invariant under rotating the assembly as a whole: the pieces move
    together, so the same physical half-edges keep touching.
    """
    n = asm.n
    pairs = set()
    singles = set()
    for i in range(n):
        for j in range(n):
            label, r = asm.cells[i][j]
            if j + 1 < n:
                lab2, r2 = asm.cells[i][j + 1]
                pairs.add(
                    frozenset(((label, ROTATIONS[r][1]), (lab2, ROTATIONS[r2][3])))
                )
            if i + 1 < n:
                lab3, r3 = asm.cells[i + 1][j]
                pairs.add(
                    frozenset(((label, ROTATIONS[r][2]), (lab3, ROTATIONS[r3][0])))
                )
            if i == 0:
                singles.add((label, ROTATIONS[r][0]))
            if i == n - 1:
                singles.add((label, ROTATIONS[r][2]))
            if j == 0:
                singles.add((label, ROTATIONS[r][3]))
            if j == n - 1:
                singles.add((label, ROTATIONS[r][1]))
    return EdgePairing(pairs=frozenset(pairs), singles=frozenset(singles))


def write_puzzle(gc: GridColoring) -> str:
    """Serialise a colouring to the plain-text puzzle format.

    Line 1: ``n q``.  Then n+1 lines of n ints (horizontal slots, top
    row first), then n lines of n+1 ints (vertical slots).  Ends with a
    newline.
    """
    lines = [f"{gc.n} {gc.q}"]
    for i in range(gc.n + 1):
        lines.append(" ".join(str(int(c)) for c in gc.h[i]))
    for i in range(gc.n):
        lines.append(" ".join(str(int(c)) for c in gc.v[i]))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line_no: int, col_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise PuzzleFormatError(
            f"line {line_no}, entry {col_no}: expected an integer, got {token!r}"
        ) from None


def read_puzzle(text: str) -> GridColoring:
    """Parse the puzzle format; inverse of write_puzzle.

    Raises PuzzleFormatError with a line/entry diagnostic for any
    malformed input (wrong counts, stray tokens, colours outside
    [0, q), missing trailing newline).
    """
    if not text.endswith("\n"):
        raise PuzzleFormatError("puzzle file must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise PuzzleFormatError("line 1: missing header")
    head = lines[0].split()
    if len(head) != 2:
        raise PuzzleFormatError(f"line 1: expected 'n q', got {lines[0]!r}")
    n = _parse_int(head[0], 1, 1)
    q = _parse_int(head[1], 1, 2)
    if n < 1 or q < 1:
        raise PuzzleFormatError(f"line 1: n and q must be positive, got n={n} q={q}")
    expected = 1 + (n + 1) + n
    if len(lines) != expected:
        raise PuzzleFormatError(
            f"expected {expected} lines for n={n}, got {len(lines)}"
        )

    def parse_row(line_no: int, width: int) -> list[int]:
        toks = lines[line_no - 1].split()
        if len(toks) != width:
            raise PuzzleFormatError(
                f"line {line_no}: expected {width} entries, got {len(toks)}"
            )
        row = []
        for c, tok in enumerate(toks, start=1):
            val = _parse_int(tok, line_no, c)
            if not 0 <= val < q:
                raise PuzzleFormatError(
                    f"line {line_no}, entry {c}: colour {val} outside [0, {q})"
                )
            row.append(val)
        return row

    h = [parse_row(2 + i, n) for i in range(n + 1)]
    v = [parse_row(2 + (n + 1) + i, n + 1) for i in range(n)]
    return GridColoring(n=n, q=q, h=np.array(h, dtype=np.int64), v=np.array(v, dtype=np.int64))
