"""Command-line interface.

Exit codes: 0 success (including a clean ``certify`` run that finds no
certificate); 1 usage or parameter errors; 2 malformed puzzle/witness
file; 3 ``unique`` came back undetermined; 4 ``verify`` rejected the
witness or ``poly --check-lemma1`` found a corner-accounting violation.
"""

from __future__ import annotations

import argparse
import sys

from . import certificates, harness, solver
from .core import (
    PuzzleFormatError,
    generate_puzzle,
    pieces_of,
    read_puzzle,
    write_puzzle,
)
from .solver import WitnessFormatError, read_witness, write_witness


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for bad
    input files, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _int_list(text: str) -> list:
    vals = [int(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")
    return vals


def _load_puzzle(path: str):
    return read_puzzle(_read_text(path))


def _cmd_gen(args) -> int:
    gc = generate_puzzle(args.n, args.q, args.seed)
    _write_text(args.out, write_puzzle(gc))
    return 0


def _cmd_solve(args) -> int:
    gc = _load_puzzle(args.infile)
    bag = pieces_of(gc)
    result = solver.count_valid(bag, gc.n, limit=args.limit)
    tag = "exact" if result.exact else "at-least"
    print(f"assemblies {result.count} {tag}")
    if args.witness_out is not None:
        found = solver.enumerate_assemblies(bag, gc.n, limit=1)
        if not found:
            print("no assembly to write", file=sys.stderr)
            return 1
        _write_text(args.witness_out, write_witness(found[0]))
    return 0


def _cmd_verify(args) -> int:
    gc = _load_puzzle(args.infile)
    asm = read_witness(_read_text(args.witness))
    try:
        ok = solver.verify_assembly(pieces_of(gc), asm)
    except ValueError as exc:
        # witness parsed but names pieces the puzzle does not have
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("VALID" if ok else "INVALID")
    return 0 if ok else 4


def _cmd_certify(args) -> int:
    verdict = solver.decide(_load_puzzle(args.infile), "certificate")
    cert = verdict.certificate
    if cert is None:
        print("NONE")
        return 0
    if isinstance(cert, certificates.RotationPair):
        a, b = cert.label_a, cert.label_b
        print(f"PAIR a={a[0]},{a[1]} b={b[0]},{b[1]} shift={cert.shift}")
    else:
        print(f"SYMMETRIC piece={cert[0]},{cert[1]}")
    sys.stdout.write(write_witness(verdict.witness))
    return 0


def _cmd_unique(args) -> int:
    verdict = solver.decide(_load_puzzle(args.infile), args.mode, args.budget)
    line = verdict.kind.upper()
    if verdict.reason:
        line += f" ({verdict.reason})"
    print(line)
    if args.witness_out is not None and verdict.witness is not None:
        _write_text(args.witness_out, write_witness(verdict.witness))
    return 3 if verdict.kind == "undetermined" else 0


def _cmd_sweep(args) -> int:
    spec = harness.SweepSpec(
        n_values=tuple(args.n),
        q_values=tuple(args.q),
        trials=args.trials,
        mode=args.mode,
        master_seed=args.seed,
        node_budget=args.budget,
        record_timings=not args.no_timings,
    )
    rows = harness.run_sweep(spec, workers=args.workers)
    _write_text(args.out, harness.rows_to_csv(rows))
    return 0


def _cmd_poly(args) -> int:
    from . import polyomino

    per_size = polyomino.enumerate_fixed_polyominoes(args.enumerate)
    for size in sorted(per_size):
        print(f"size {size}: {len(per_size[size])} fixed polyominoes")
    if not args.check_lemma1:
        return 0
    checked = 0
    violations = 0
    for size in sorted(per_size):
        for poly in per_size[size]:
            census = polyomino.corner_census(poly)
            if census.concave - census.convex != 4:
                violations += 1
                print(f"corner-count violation: {sorted(poly.cells)}")
                continue
            balanced = all(
                (c := polyomino.side_corner_census(poly, side)).concave == c.convex
                for side in ("top", "right", "bottom", "left")
            )
            if not balanced:
                violations += 1
                print(f"side-balance violation: {sorted(poly.cells)}")
            checked += 1
    if violations:
        print(f"FAIL {violations} violations")
        return 4
    print(f"OK corner accounting holds for all {checked} polyominoes")
    return 0


def _cmd_patch(args) -> int:
    from . import patches

    # an unknown kind raises ValueError naming patches.PATCH_KINDS
    patch = patches.build_patch(
        args.type, ell=args.ell, m=args.m, enclosed_sides=args.sides, tile=args.tile
    )
    new = len(patch.new_edge_indices())
    print(
        f"kind={patch.kind} cells={len(patch.cells)} anchor={len(patch.anchor)}"
        f" fill={len(patch.fill)} components={patch.num_components}"
        f" new_edges={new} slots={patch.num_slots}"
    )
    try:
        exact = patches.exact_monochromatic_probability(patch, args.q)
        print(f"exact_ordered_probability={exact:.9g} edges={len(patch.ordering)}")
    except patches.DependencyOrderError as exc:
        print(f"exact_ordered_probability=unavailable ({exc})")
    bound = patches.monochromatic_probability_bound(
        [patch.edges[k] for k in patch.new_edge_indices()], args.q
    )
    print(f"pairwise_bound={bound:.9g}")
    if patch.kind == "hole":
        print(f"hole_bound={patches.hole_probability_bound(patch, args.q):.9g}")
    est, se = patches.estimate_validity(patch, args.q, args.trials, args.seed)
    print(f"estimate={est:.9g} se={se:.3g} trials={args.trials} seed={args.seed}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="jigsaw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a random puzzle")
    p.add_argument("--n", type=int, required=True, help="grid side length")
    p.add_argument("--q", type=int, required=True, help="number of colours")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="count valid assemblies")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--limit", type=int, default=solver.DEFAULT_COUNT_LIMIT)
    p.add_argument("--witness-out", default=None, help="write one assembly here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a witness assembly against a puzzle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="look for a swap certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("unique", help="decide uniqueness of a puzzle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=solver.MODES, default="auto")
    p.add_argument("--budget", type=int, default=solver.DEFAULT_NODE_BUDGET)
    p.add_argument("--witness-out", default=None)
    p.set_defaults(func=_cmd_unique)

    p = sub.add_parser("sweep", help="run a seeded (n, q) sweep, output CSV")
    p.add_argument("--n", type=_int_list, required=True, help="e.g. 2,3,4")
    p.add_argument("--q", type=_int_list, required=True, help="e.g. 1,2,4,8")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--mode", choices=solver.MODES, default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--workers", type=int, default=1,
                   help="threads for the trials on the C kernel; the Python kernel runs them serially")
    p.add_argument("--budget", type=int, default=solver.DEFAULT_NODE_BUDGET)
    p.add_argument(
        "--no-timings",
        action="store_true",
        help="pin mean_ms to 0.0 so reruns are byte-identical",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("poly", help="enumerate polyominoes, check corner accounting")
    p.add_argument("--enumerate", type=int, default=6, metavar="K",
                   help="largest size to enumerate (1..10)")
    p.add_argument("--check-lemma1", action="store_true",
                   help="verify corner counts and per-side balance")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("patch", help="build a rearrangement patch and price it")
    p.add_argument("--type", required=True, metavar="KIND",
                   help="one of jigsaw.patches.PATCH_KINDS")
    p.add_argument("--ell", type=int, default=3, help="size knob (see docs)")
    p.add_argument("--m", type=int, default=1, help="source component count")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sides", type=int, default=3, choices=(2, 3),
                   help="enclosed sides (indentation only)")
    p.add_argument("--tile", type=int, default=1, help="tile side (subsquare only)")
    p.set_defaults(func=_cmd_patch)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PuzzleFormatError as exc:
        print(f"error: bad puzzle file: {exc}", file=sys.stderr)
        return 2
    except WitnessFormatError as exc:
        print(f"error: bad witness file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
