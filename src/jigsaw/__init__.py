"""Random edge-matching puzzles on square grids: generation, exact
uniqueness decisions, swap certificates, rearrangement-patch
probabilities, border corner accounting, and seeded experiment sweeps.
"""

import importlib

from .core import (
    Assembly,
    CanonicalPiece,
    EdgePairing,
    GridColoring,
    Piece,
    PieceBag,
    PuzzleFormatError,
    canonical_piece,
    edge_pairing,
    generate_puzzle,
    identity_assembly,
    pieces_of,
    read_puzzle,
    rotate_assembly,
    rotate_tuple,
    side_array,
    write_puzzle,
)
from .solver import (
    UniquenessVerdict,
    ValidCount,
    WitnessFormatError,
    count_valid,
    decide,
    decide_unique,
    enumerate_assemblies,
    read_witness,
    verify_assembly,
    write_witness,
)
from .certificates import (
    RotationPair,
    birthday_upper_bound,
    build_swap_witness,
    find_rotation_equivalent_pair,
    find_symmetric_piece,
)
from .harness import SweepRow, SweepSpec, derive_trial_seed, rows_to_csv, run_sweep

# No decision path uses these two modules, so they load on first use.
_LAZY = {
    "polyomino": (
        "CornerCensus",
        "Polyomino",
        "corner_census",
        "enumerate_fixed_polyominoes",
        "find_holes",
        "find_indentations",
        "side_corner_census",
        "trace_outer_border",
    ),
    "patches": (
        "DependencyOrderError",
        "PatchEdge",
        "PatchSpec",
        "ScaleConstants",
        "build_patch",
        "estimate_validity",
        "exact_monochromatic_probability",
        "hole_probability_bound",
        "monochromatic_probability_bound",
        "scale_constants",
        "swap_pair_patch",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__version__ = "0.1.0"

__all__ = [
    "Assembly",
    "CanonicalPiece",
    "CornerCensus",
    "DependencyOrderError",
    "EdgePairing",
    "GridColoring",
    "PatchEdge",
    "PatchSpec",
    "Piece",
    "PieceBag",
    "Polyomino",
    "PuzzleFormatError",
    "RotationPair",
    "ScaleConstants",
    "SweepRow",
    "SweepSpec",
    "UniquenessVerdict",
    "ValidCount",
    "WitnessFormatError",
    "birthday_upper_bound",
    "build_patch",
    "build_swap_witness",
    "canonical_piece",
    "corner_census",
    "count_valid",
    "decide",
    "decide_unique",
    "derive_trial_seed",
    "edge_pairing",
    "enumerate_assemblies",
    "enumerate_fixed_polyominoes",
    "estimate_validity",
    "exact_monochromatic_probability",
    "find_holes",
    "find_indentations",
    "find_rotation_equivalent_pair",
    "find_symmetric_piece",
    "generate_puzzle",
    "hole_probability_bound",
    "identity_assembly",
    "monochromatic_probability_bound",
    "pieces_of",
    "read_puzzle",
    "read_witness",
    "rotate_assembly",
    "rotate_tuple",
    "rows_to_csv",
    "run_sweep",
    "scale_constants",
    "side_array",
    "side_corner_census",
    "swap_pair_patch",
    "trace_outer_border",
    "verify_assembly",
    "write_puzzle",
    "write_witness",
    "__version__",
]
