"""Solver tests against independent brute-force oracles."""

import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jigsaw import certificates, core, harness, kernels, solver
from jigsaw.core import (
    Assembly,
    GridColoring,
    Piece,
    PieceBag,
    edge_pairing,
    generate_puzzle,
    identity_assembly,
    pieces_of,
    rotate_assembly,
    rotate_tuple,
    side_array,
)
from jigsaw.harness import derive_trial_seed
from jigsaw.solver import (
    MODES,
    WitnessFormatError,
    _SearchPlan,
    count_valid,
    decide,
    decide_unique,
    enumerate_assemblies,
    read_witness,
    verify_assembly,
    write_witness,
)


from oracles import (
    brute_force_n2,
    brute_force_recursive,
    grid_orientations,
    is_witness_reference,
    plan_reference,
    verify_assembly_reference,
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(
    os.environ,
    JIGSAW_DISABLE_NUMBA="1",
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)


def assembly_key(asm: Assembly):
    return asm.cells


class TestBruteForceAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_n2_counts_and_sets(self, seed):
        q = (seed % 3) + 1
        gc = generate_puzzle(2, q, seed=seed)
        bag = pieces_of(gc)
        oracle = brute_force_n2(bag)
        for asm in oracle[:50]:
            assert verify_assembly(bag, asm)
        got = enumerate_assemblies(bag, 2, limit=len(oracle) + 10)
        assert len(got) == len(oracle)
        assert {assembly_key(a) for a in got} == {assembly_key(a) for a in oracle}
        counted = count_valid(bag, 2, limit=len(oracle) + 10)
        assert counted.exact and counted.count == len(oracle)

    def test_n2_q1_full_count(self):
        bag = pieces_of(generate_puzzle(2, 1, seed=0))
        res = count_valid(bag, 2, limit=10_000)
        assert res.exact and res.count == 6144  # 4! * 4^4

    @pytest.mark.parametrize("seed,q", [(0, 5), (1, 5), (2, 8), (3, 8), (4, 4)])
    def test_n3_recursive_agreement(self, seed, q):
        gc = generate_puzzle(3, q, seed=seed)
        bag = pieces_of(gc)
        oracle = brute_force_recursive(bag, 3)
        got = enumerate_assemblies(bag, 3, limit=len(oracle) + 10)
        assert len(got) == len(oracle)
        assert {assembly_key(a) for a in got} == {assembly_key(a) for a in oracle}

    def test_at_least_count_rounds_up_to_orbit(self):
        bag = pieces_of(generate_puzzle(2, 1, seed=0))
        res = count_valid(bag, 2, limit=10)
        assert not res.exact and res.count == 12
        assert len(enumerate_assemblies(bag, 2, limit=10)) == 10

    @pytest.mark.parametrize("seed", range(8))
    def test_count_divisible_by_four(self, seed):
        # valid assemblies come in whole rotation orbits
        gc = generate_puzzle(2, seed % 4 + 2, seed=seed)
        res = count_valid(pieces_of(gc), 2, limit=50_000)
        if res.exact:
            assert res.count % 4 == 0
            assert res.count >= 4


class TestSearchOrder:
    @pytest.mark.parametrize("n,trial", [(7, t) for t in range(4)] + [(8, t) for t in range(3)])
    def test_unique_regime_q_n_squared(self, n, trial):
        # the scanline order spent a 2M-node budget on each of these
        gc = generate_puzzle(n, n * n, derive_trial_seed(31337, n, n * n, trial))
        assert decide_unique(gc, budget=2_000_000).kind == "unique"

    @pytest.mark.parametrize(
        "n,q,seed",
        [(3, q, s) for q in range(2, 9) for s in range(3)] + [(4, q, 0) for q in range(4, 9)],
    )
    def test_oracle_agreement_frozen_seeds(self, n, q, seed):
        gc = generate_puzzle(n, q, seed=seed)
        bag = pieces_of(gc)
        cap = 100  # a multiple of 4, so an at-least count equals the capped oracle
        oracle = brute_force_recursive(bag, n, cap=cap)
        res = count_valid(bag, n, limit=cap)
        assert res.count == len(oracle)
        assert res.exact == (len(oracle) < cap)
        if res.exact:
            got = enumerate_assemblies(bag, n, limit=cap)
            assert sorted(a.cells for a in got) == sorted(a.cells for a in oracle)
        assert decide_unique(gc).kind == ("unique" if len(oracle) == 4 else "nonunique")

    def test_scanline_order_same_verdicts(self):
        # the frozen seeds of acceptance test 10
        n = 4
        scanline = [(i, j) for i in range(n) for j in range(n)]
        for q in (1, 2, 4, 8, 16, 32, 64):
            for t in range(200):
                gc = generate_puzzle(n, q, derive_trial_seed(31337, n, q, t))
                plan = _SearchPlan.of_bag(pieces_of(gc), n, cells=scanline)
                status, count, _, _ = plan.run(limit=2, budget=2**62, max_store=0)
                unique = status == kernels.STATUS_COMPLETE and count == 1
                assert decide_unique(gc).kind == ("unique" if unique else "nonunique"), (q, t)

    def test_order_must_place_neighbours_first(self):
        bag = pieces_of(generate_puzzle(2, 2, seed=0))
        for cells in ([(1, 1), (0, 0), (0, 1), (1, 0)], [(0, 0), (0, 1), (1, 0), (0, 0)]):
            with pytest.raises(ValueError, match="every grid cell once"):
                _SearchPlan.of_bag(bag, 2, cells=cells)


REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "search_references.json")


def witness_digest(verdict):
    if verdict.witness is None:
        return None
    return hashlib.sha256(write_witness(verdict.witness).encode()).hexdigest()[:16]


def tight_budget_puzzle(n: int) -> GridColoring:
    """A unique puzzle whose identity spends the whole border budget.

    The tops of row 0 after the corner and the lefts of column 0 after
    the corner show even colours, in pairs; every other border side
    shows a colour of its own and every internal edge another.  So the
    2n - 2 even border sides all face out where the search counts them,
    and slack = 4n - (2n + 2) is exactly 2n - 2.
    """
    h = np.zeros((n + 1, n), dtype=np.int64)
    v = np.zeros((n, n + 1), dtype=np.int64)
    colour = iter(range(10**6))
    for i in range(1, n):
        h[i] = [next(colour) for _ in range(n)]
        v[i - 1, 1:n] = [next(colour) for _ in range(n - 1)]
    v[n - 1, 1:n] = [next(colour) for _ in range(n - 1)]
    paired = [(0, j) for j in range(1, n)] + [(i, 0) for i in range(1, n)]
    for k, (i, j) in enumerate(paired):
        colour_of_pair = 10**6 + k // 2
        if i == 0:
            h[0, j] = colour_of_pair
        else:
            v[i, 0] = colour_of_pair
    h[0, 0], v[0, 0] = next(colour), next(colour)
    h[n] = [next(colour) for _ in range(n)]
    v[:, n] = [next(colour) for _ in range(n)]
    return GridColoring(n=n, q=10**6 + n, h=h, v=v)


class TestBorderBudget:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_match_frozen_references(self, n):
        with open(REFERENCES) as fh:
            ref = json.load(fh)
        rows = [row for row in ref["counts"] if row[0] == n]
        assert len(rows) == 17 * 10
        for _, q, t, count, exact, kind, digest in rows:
            gc = generate_puzzle(n, q, derive_trial_seed(ref["master"], n, q, t))
            got = count_valid(pieces_of(gc), n, limit=ref["cap"])
            verdict = decide_unique(gc)
            assert (got.count, got.exact, verdict.kind, witness_digest(verdict)) == (count, exact, kind, digest), (q, t)

    def test_decisions_match_frozen_references(self):
        with open(REFERENCES) as fh:
            ref = json.load(fh)
        assert len(ref["decisions"]) == 63
        for n, q, t, kind, digest in ref["decisions"]:
            verdict = decide_unique(generate_puzzle(n, q, derive_trial_seed(ref["master"], n, q, t)), ref["budget"])
            assert (verdict.kind, witness_digest(verdict)) == (kind, digest), (n, q, t)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_agreement_with_odd_borders(self, n, seed):
        # internal edges from a few colours; border colours distinct
        # except for `pairs` pairs, so slack = 2 * pairs, from 0 to 2n
        rng = np.random.default_rng([n, seed])
        q_internal = 1 + seed % 3
        pairs = seed % (n + 1)
        h = rng.integers(0, q_internal, size=(n + 1, n))
        v = rng.integers(0, q_internal, size=(n, n + 1))
        border = 10 + rng.permutation(4 * n)
        twins = rng.permutation(4 * n)
        for k in range(pairs):
            border[twins[2 * k + 1]] = border[twins[2 * k]]
        h[0], h[n], v[:, 0], v[:, n] = border[:n], border[n:2 * n], border[2 * n:3 * n], border[3 * n:]
        gc = GridColoring(n=n, q=10 + 4 * n, h=h, v=v)
        bag = pieces_of(gc)
        assert _SearchPlan.of_bag(bag, n).slack == 2 * pairs
        cap = 200  # a multiple of 4, so an at-least count equals the capped oracle
        oracle = brute_force_recursive(bag, n, cap=cap)
        res = count_valid(bag, n, limit=cap)
        assert res == solver.ValidCount(count=len(oracle), exact=len(oracle) < cap)
        if res.exact:
            got = enumerate_assemblies(bag, n, limit=cap)
            assert sorted(a.cells for a in got) == sorted(a.cells for a in oracle)
        assert decide_unique(gc).kind == ("unique" if len(oracle) == 4 else "nonunique")

    @pytest.mark.parametrize("n", [12, 16])
    def test_budget_prunes_the_unique_regime(self, n):
        # at q = n^3 nearly every border colour occurs once, the slack is
        # near 0 and the first row and column take only border pieces;
        # without the budget these searches took 130-215 nodes per cell
        for t in range(3):
            verdict = decide_unique(generate_puzzle(n, n**3, derive_trial_seed(31337, n, n**3, t)))
            assert verdict.kind == "unique"
            assert verdict.nodes <= 8 * n * n, (t, verdict.nodes)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("order", ["square", "scanline"])
    def test_identity_that_spends_the_whole_slack(self, n, order):
        gc = tight_budget_puzzle(n)
        bag = pieces_of(gc)
        cells = None if order == "square" else [(i, j) for i in range(n) for j in range(n)]
        plan = _SearchPlan.of_bag(bag, n, cells=cells)
        assert plan.slack == 2 * n - 2
        status, count, _, placements = plan.run(limit=10, budget=2**62, max_store=10)
        assert (status, count) == (kernels.STATUS_COMPLETE, 1)
        assert placements[0].tolist() == [4 * k for k in range(n * n)]
        assert decide_unique(gc).kind == "unique"
        assert count_valid(bag, n) == solver.ValidCount(count=4, exact=True)
        if n <= 3:
            assert len(brute_force_recursive(bag, n)) == 4


class TestCompatIndex:
    @staticmethod
    def expected(bag, top, left, room=None):
        # every orientation showing the pair, except the pinned piece 0
        # (lowest label) in rotations 1..3, and except what the border
        # budget rules out: where a neighbour is missing, that side faces
        # out, and it may show an even colour (one with an even number of
        # sides in the bag) only while room > 0; cell (0, 0) may turn out
        # at most slack = 4n - #(odd colours) even sides
        multiplicity = Counter(c for p in bag for c in p.sides)
        even = {c for c, m in multiplicity.items() if m % 2 == 0}
        slack = 4 * 2 - (len(multiplicity) - len(even))
        room = slack if room is None else room
        out = []
        for k, piece in enumerate(sorted(bag, key=lambda p: p.label)):
            for r in range(1 if k == 0 else 4):
                shown = rotate_tuple(piece.sides, r)
                if top not in (None, shown[0]) or left not in (None, shown[3]):
                    continue
                facing_out = (top is None and shown[0] in even) + (left is None and shown[3] in even)
                if top is None and left is None:
                    fits = facing_out <= slack
                else:
                    fits = facing_out == 0 or room > 0
                if fits:
                    out.append((piece.label, r))
        return out

    def test_exact_lookup_spec_example(self):
        bag = PieceBag(
            pieces=(
                Piece((0, 0), (5, 5, 5, 5)),
                Piece((0, 1), (1, 2, 3, 4)),
                Piece((1, 0), (6, 6, 6, 6)),
                Piece((1, 1), (7, 7, 7, 7)),
            )
        )
        plan = _SearchPlan.of_bag(bag, 2)
        # show top=3 and left=2: rotate (1,2,3,4) so side 2 faces up and
        # side 1 faces left -> rotation 2
        assert plan.candidates(3, 2) == [((0, 1), 2)]
        assert plan.candidates(9, 2) == []
        # piece 0 is pinned to rotation 0
        assert plan.candidates(5, 5) == [((0, 0), 0)]

    def test_wildcards(self):
        bag = PieceBag(
            pieces=(
                Piece((0, 0), (5, 5, 5, 5)),
                Piece((0, 1), (1, 2, 3, 4)),
                Piece((1, 0), (6, 6, 6, 6)),
                Piece((1, 1), (7, 7, 7, 7)),
            )
        )
        plan = _SearchPlan.of_bag(bag, 2)
        # no constraint: the pinned piece once, the other three in 4 rotations
        assert len(plan.candidates(None, None)) == 13
        assert plan.candidates(6, None) == [((1, 0), r) for r in range(4)]
        assert plan.candidates(9, None) == []
        assert plan.candidates(1, 9) == []
        # left-only wildcard
        assert ((0, 1), 0) in plan.candidates(None, 4)

    def test_q1_all_entries(self):
        bag = pieces_of(generate_puzzle(2, 1, seed=3))
        plan = _SearchPlan.of_bag(bag, 2)
        # 4 pieces x 4 rotations, less rotations 1..3 of the pinned piece
        assert len(plan.candidates(0, 0)) == 13

    def test_slack_zero_border_lists_shrink(self):
        # 8 border colours once each, 4 internal colours twice each
        gc = GridColoring(
            n=2, q=18, h=np.array([[10, 11], [0, 1], [12, 13]]), v=np.array([[14, 2, 15], [16, 3, 17]])
        )
        plan = _SearchPlan.of_bag(pieces_of(gc), 2)
        assert plan.slack == 0
        # a plan of the side array names the grid's pieces by default
        assert _SearchPlan(side_array(gc), 2).candidates(None, None) == plan.candidates(None, None)
        # cell (0, 0) takes only the four corners turned with both odd sides out
        assert plan.candidates(None, None) == [((0, 0), 0), ((0, 1), 3), ((1, 0), 1), ((1, 1), 2)]
        assert plan.candidates(None, 2) == [((0, 1), 0)]
        # rotation 3 of (1, 0) turns the even colours 3 to the top and 0 to the left
        assert plan.candidates(None, 0) == []
        assert plan.candidates(None, 0, room=1) == [((1, 0), 3)]
        assert plan.candidates(3, None) == [((1, 1), 1)]
        assert plan.candidates(3, None, room=1) == [((1, 0), 3), ((1, 1), 1)]
        # no side faces out inside the grid
        assert plan.candidates(1, 3) == plan.candidates(1, 3, room=1) == [((1, 1), 0)]

    @given(
        sides=st.lists(st.tuples(*[st.integers(0, 4)] * 4), min_size=4, max_size=4),
        perm=st.permutations(range(4)),
    )
    @example(sides=[(0, 0, 0, 0)] * 4, perm=[0, 1, 2, 3])  # one colour: every entry
    @example(  # slack 0: every border side odd
        sides=[(10, 2, 0, 14), (11, 15, 1, 2), (0, 3, 12, 16), (1, 17, 13, 3)], perm=[0, 1, 2, 3]
    )
    @example(  # slack 2: two even sides may face out
        sides=[(10, 2, 0, 10), (11, 15, 1, 2), (0, 3, 12, 16), (1, 17, 13, 3)], perm=[3, 1, 0, 2]
    )
    @example(  # slack -2: 10 odd colours, no assembly
        sides=[(10, 2, 0, 14), (11, 15, 1, 2), (0, 3, 12, 16), (1, 17, 13, 4)], perm=[0, 1, 2, 3]
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_definition(self, sides, perm):
        labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
        bag = PieceBag(pieces=tuple(Piece(labels[k], sides[k]) for k in perm))
        plan = _SearchPlan.of_bag(bag, 2)
        colours = [None, *range(max(max(t) for t in sides) + 2)]
        for top in colours:
            for left in colours:
                assert plan.candidates(top, left) == self.expected(bag, top, left)
                if (top, left) != (None, None):  # cell (0, 0) always has the whole slack
                    for room in (0, 1):
                        assert plan.candidates(top, left, room) == self.expected(bag, top, left, room)


class TestDecideUnique:
    def test_distinct_colours_unique(self):
        import numpy as np
        from jigsaw.core import GridColoring

        gc = GridColoring(
            n=2, q=12, h=np.array([[0, 1], [2, 3], [4, 5]]),
            v=np.array([[6, 7, 8], [9, 10, 11]]),
        )
        res = decide_unique(gc)
        assert res.kind == "unique"
        assert res.witness is None

    def test_q1_nonunique_with_witness(self):
        gc = generate_puzzle(2, 1, seed=0)
        res = decide_unique(gc)
        assert res.kind == "nonunique"
        assert verify_assembly(pieces_of(gc), res.witness)
        assert edge_pairing(res.witness) != edge_pairing(identity_assembly(2))

    def test_n1_unique(self):
        res = decide_unique(generate_puzzle(1, 1, seed=0))
        assert res.kind == "unique"

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_soundness(self, seed):
        gc = generate_puzzle(3, 2 + seed % 3, seed=seed)
        res = decide_unique(gc)
        if res.kind == "nonunique":
            assert verify_assembly(pieces_of(gc), res.witness)
            assert edge_pairing(res.witness) != edge_pairing(identity_assembly(3))

    def test_budget_returns_undetermined(self):
        gc = generate_puzzle(4, 2, seed=5)
        res = decide_unique(gc, budget=3)
        assert res.kind == "undetermined"
        assert res.reason

    @pytest.mark.parametrize("seed", range(6))
    def test_budget_monotone(self, seed):
        gc = generate_puzzle(3, 3 + seed % 4, seed=seed)
        small = decide_unique(gc, budget=20)
        big = decide_unique(gc, budget=10**8)
        assert big.kind != "undetermined"
        if small.kind != "undetermined":
            assert small.kind == big.kind


class TestVerifyAssembly:
    def test_identity_always_valid(self):
        for seed in range(4):
            gc = generate_puzzle(3, 3, seed=seed)
            assert verify_assembly(pieces_of(gc), identity_assembly(3))

    def test_rotated_identity_valid(self):
        from jigsaw.core import rotate_assembly

        gc = generate_puzzle(3, 3, seed=0)
        asm = rotate_assembly(identity_assembly(3))
        assert verify_assembly(pieces_of(gc), asm)

    def test_colour_mismatch_false(self):
        gc = generate_puzzle(2, 12, seed=1)
        asm = identity_assembly(2)
        cells = [list(r) for r in asm.cells]
        cells[0][0] = (cells[0][0][0], 1)  # rotate one piece in place
        bad = Assembly(n=2, cells=tuple(tuple(r) for r in cells))
        assert not verify_assembly(pieces_of(gc), bad)

    def test_unknown_label_raises(self):
        gc = generate_puzzle(2, 2, seed=0)
        cells = (
            (((9, 9), 0), ((0, 1), 0)),
            (((1, 0), 0), ((1, 1), 0)),
        )
        with pytest.raises(ValueError, match="unknown"):
            verify_assembly(pieces_of(gc), Assembly(n=2, cells=cells))

    def test_repeated_label_raises(self):
        gc = generate_puzzle(2, 2, seed=0)
        cells = (
            (((0, 0), 0), ((0, 0), 0)),
            (((1, 0), 0), ((1, 1), 0)),
        )
        with pytest.raises(ValueError, match="repeat"):
            verify_assembly(pieces_of(gc), Assembly(n=2, cells=cells))


def witness_problem(gc, asm):
    """The array witness check that decide applies, on an Assembly."""
    return solver._witness_problem(side_array(gc), grid_orientations(asm, gc.n), gc.n)


def with_cell(asm, i, j, entry):
    cells = [list(row) for row in asm.cells]
    cells[i][j] = entry
    return Assembly(n=asm.n, cells=tuple(tuple(row) for row in cells))


def trial_assemblies(gc):
    """Valid, colour-broken, repeated-label and unknown-label assemblies of gc."""
    n = gc.n
    out = enumerate_assemblies(pieces_of(gc), n, limit=12)
    ident = identity_assembly(n)
    out += [ident, rotate_assembly(ident)]
    for asm in list(out):
        label, r = asm.cells[0][n - 1]
        out.append(with_cell(asm, 0, n - 1, (label, (r + 1) % 4)))  # turned in place
        out.append(with_cell(asm, n - 1, 0, asm.cells[0][0]))  # a repeat
        out.append(with_cell(asm, n - 1, n - 1, ((n, 0), 0)))  # off the grid
        out.append(with_cell(asm, 0, 0, ((0, -1), 2)))
    return out


def verify_outcome(fn, bag, asm):
    try:
        return fn(bag, asm)
    except ValueError as exc:
        return str(exc)


class TestWitnessCheck:
    """The array checks against the shown-tuple and frozenset references."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("q", [1, 2, 3, 6])
    def test_agrees_with_references(self, n, q):
        kinds = set()
        for seed in range(3):
            gc = generate_puzzle(n, q, seed=seed)
            bag = pieces_of(gc)
            for asm in trial_assemblies(gc):
                expected = verify_outcome(verify_assembly_reference, bag, asm)
                assert verify_outcome(verify_assembly, bag, asm) == expected
                kinds.add(expected if isinstance(expected, bool) else expected.split()[1])
                assert (witness_problem(gc, asm) is None) == is_witness_reference(bag, asm)
        assert {True, "uses", "repeats"} <= kinds
        assert (False in kinds) == (q > 1)

    def test_verify_on_a_bag_not_in_label_order(self):
        gc = generate_puzzle(3, 2, seed=4)
        bag = PieceBag(pieces=tuple(reversed(pieces_of(gc).pieces)))
        for asm in trial_assemblies(gc):
            assert verify_outcome(verify_assembly, bag, asm) == verify_outcome(
                verify_assembly_reference, bag, asm
            )

    def test_leaving_a_piece_out(self):
        gc = generate_puzzle(3, 1, seed=0)
        small = identity_assembly(2)
        with pytest.raises(ValueError, match="every piece"):
            verify_assembly(pieces_of(gc), small)
        assert witness_problem(gc, small) == "does not place every piece once"

    @pytest.mark.parametrize("mode", MODES)
    def test_every_nonunique_verdict_carries_a_checked_witness(self, mode):
        nonunique = 0
        for n, q in ((2, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 2)):
            for t in range(4):
                gc = generate_puzzle(n, q, derive_trial_seed(77, n, q, t))
                verdict = decide(gc, mode)
                if verdict.kind == "nonunique":
                    nonunique += 1
                    assert is_witness_reference(pieces_of(gc), verdict.witness)
                    assert (verdict.certificate is not None) == (verdict.reason == "certificate")
        assert nonunique >= 10

    @pytest.mark.parametrize("mode", ["certificate", "auto"])
    def test_bad_certificate_witness_raises(self, mode, monkeypatch):
        gc = generate_puzzle(3, 2, seed=0)
        assert decide(gc, mode).kind == "nonunique"
        identity = 4 * np.arange(9)
        broken = identity.copy()
        broken[0] += 1  # (0, 0) turned in place
        for bad in (identity, broken):
            monkeypatch.setattr(certificates, "swap_orientations", lambda sides, cert, n, bad=bad: bad)
            with pytest.raises(AssertionError):
                decide(gc, mode)
            with pytest.raises(AssertionError):
                harness._run_trial(3, 2, mode, 0, 10**6)

    @pytest.mark.parametrize("damage", ["repeat", "identity"])
    def test_bad_search_witness_raises(self, damage, monkeypatch):
        gc = generate_puzzle(3, 2, seed=0)
        assert decide(gc, "exact").kind == "nonunique"
        real = kernels.search
        identity = [4 * (i * 3 + j) for i, j in solver._square_order(3)]

        def damaged(*args):
            status, count, nodes, stored = real(*args)
            sols = args[list(inspect.signature(kernels._search_impl).parameters).index("sols")]
            if damage == "repeat":
                sols[1] = sols[9 + 1] = sols[0]
            else:
                sols[:18] = identity * 2
            return status, count, nodes, stored

        monkeypatch.setattr(kernels, "search", damaged)
        with pytest.raises(AssertionError):
            decide(gc, "exact")

    def test_decide_modes(self):
        distinct = GridColoring(
            n=2, q=12, h=np.array([[0, 1], [2, 3], [4, 5]]), v=np.array([[6, 7, 8], [9, 10, 11]])
        )
        assert decide(distinct, "exact").kind == "unique"
        assert decide(distinct, "auto").kind == "unique"
        verdict = decide(distinct, "certificate")
        assert (verdict.kind, verdict.reason) == ("undetermined", "no certificate found")
        for mode in MODES:
            assert decide(generate_puzzle(1, 1, seed=0), mode).kind == "unique"
        with pytest.raises(ValueError, match="mode"):
            decide(distinct, "fast")


class TestWitnessFormat:
    def test_round_trip(self):
        gc = generate_puzzle(3, 1, seed=2)
        asm = enumerate_assemblies(pieces_of(gc), 3, limit=5)[3]
        assert read_witness(write_witness(asm)) == asm

    def test_exact_text(self):
        asm = identity_assembly(2)
        assert write_witness(asm) == "0,0:0 0,1:0\n1,0:0 1,1:0\n"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("0,0:0 0,1:0\n1,0:0\n", "entries"),
            ("0,0:5\n", "rotation"),
            ("0,0-0\n", "entry"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(WitnessFormatError) as exc:
            read_witness(text)
        assert fragment in str(exc.value)


def reference_table(groups):
    """items, keys, los, his and bits of groups in an open-addressing
    table filled in the dict's insertion order."""
    bits = (2 * len(groups)).bit_length()
    mask = (1 << bits) - 1
    keys, los, his, items = [-1] * (mask + 1), [0] * (mask + 1), [0] * (mask + 1), []
    for key, members in groups.items():
        s = kernels.home_slot(key, bits)
        while keys[s] != -1:
            s = (s + 1) & mask
        keys[s], los[s] = key, len(items)
        items.extend(members)
        his[s] = len(items)
    return items, keys, los, his, bits


class TestPlanAgainstReference:
    """The array-built plan against the dict grouping of tests/oracles.py."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 20])
    def test_tables_and_kernel_runs_match(self, n):
        for q in sorted({1, 2, 3, 4, 8, n, 2 * n, n**2, n**3, 1000}):
            for t in range(3):
                sides = side_array(generate_puzzle(n, q, derive_trial_seed(4242, n, q, t)))
                plan = _SearchPlan(sides, n)
                slack, width, groups, columns = plan_reference(sides, n)
                items, keys, los, his, _, got_width = plan.inputs[:6]
                assert (plan.slack, got_width) == (slack, width)
                table = {k: list(items[lo:hi]) for k, lo, hi in zip(keys, los, his) if k != -1}
                assert table == groups, (n, q, t)
                inputs = plan.inputs
                assert [list(inputs[k]) for k in (8, 9, 12, 13)] == list(columns)
                reference = (
                    *reference_table(groups), width, *inputs[6:8], *columns[:2], slack, inputs[11], *columns[2:],
                )
                runs = []
                for kernel_inputs in (inputs, reference):
                    args = kernel_inputs + plan.arguments(limit=2, budget=5_000, max_store=2)[14:]
                    result = kernels.search_python(*args)
                    runs.append((result, list(args[_SOLS_ARG][: result[3] * n * n])))
                assert runs[0] == runs[1], (n, q, t)

    def test_home_slots_of_an_array_match_past_int64_wrap(self):
        # the plan hashes its keys as one int64 array; above about 59,000
        # colours the products wrap, which must not move a key's home slot
        keys = [0, 1, 12_345, 2**32 + 7, 90_002**2 - 1, 2**40 + 3]
        for bits in (1, 9, 13, 20):
            assert kernels.home_slot(np.array(keys), bits).tolist() == [kernels.home_slot(k, bits) for k in keys]

    @pytest.mark.parametrize("bits", [1, 2, 3, 5, 8, 11])
    def test_probe_slots_make_a_linear_probing_table(self, bits):
        # every key's slot is reached from its home by probing through
        # taken slots only, also for runs that wrap past the last slot
        rng = np.random.default_rng(bits)
        size = 1 << bits
        for _ in range(50):
            count = int(rng.integers(0, size // 2 + 1))
            low = int(rng.integers(0, size))
            homes = (low + rng.integers(0, max(1, size // 4), count)) % size
            slot = solver._probe_slots(homes, bits)
            assert len(set(slot.tolist())) == count and all(0 <= s < size for s in slot.tolist())
            taken = set(slot.tolist())
            for home, s in zip(homes.tolist(), slot.tolist()):
                assert all((home + k) % size in taken for k in range((s - home) % size + 1))

    def test_python_backend_gets_lists_of_python_ints(self, monkeypatch):
        # list(array) would hand the kernel numpy scalars, which it runs
        # more than twice as slowly
        monkeypatch.setattr(kernels, "ACTIVE_BACKEND", "python")
        plan = _SearchPlan(side_array(generate_puzzle(16, 12, seed=5)), 16)
        sequences = [x for x in plan.inputs if type(x) is not int]
        assert len(sequences) == 11
        for seq in sequences:
            assert type(seq) is list and all(type(v) is int for v in seq)


_SOLS_ARG = list(inspect.signature(kernels._search_impl).parameters).index("sols")


class TestWitnessOnRead:
    """Verdicts keep orient codes; the Assembly is built only when read."""

    def test_no_decision_builds_an_assembly(self, monkeypatch):
        spec = {m: harness.SweepSpec(n_values=(2, 3), q_values=(1, 2, 4, 9), trials=3, mode=m) for m in MODES}
        puzzles = [generate_puzzle(n, q, derive_trial_seed(5, n, q, t)) for n in (2, 3, 4) for q in (1, 2, 3, 16) for t in range(2)]
        expected = (
            {m: harness.run_sweep(spec[m]) for m in ("exact", "certificate")},
            [decide(gc, m).kind for gc in puzzles for m in MODES],
        )
        assert "nonunique" in expected[1] and "unique" in expected[1]

        def refuse(*args, **kwargs):
            raise AssertionError("an Assembly was built")

        for module in (core, solver, certificates):
            monkeypatch.setattr(module, "assembly_of", refuse)
        got = (
            {m: harness.run_sweep(spec[m]) for m in ("exact", "certificate")},
            [decide(gc, m).kind for gc in puzzles for m in MODES],
        )
        assert got == expected

    def test_witness_is_built_once_and_matches_the_certificate(self):
        gc = generate_puzzle(6, 3, seed=1)
        verdict = decide(gc, "certificate")
        assert verdict.kind == "nonunique"
        assert verdict.witness is verdict.witness
        assert verdict.witness == certificates.build_swap_witness(gc, verdict.certificate)
        assert decide(gc, "exact").witness is not None
        assert decide(generate_puzzle(1, 1, seed=0)).witness is None

    def test_verdicts_with_different_witnesses_differ(self):
        gc = generate_puzzle(3, 2, seed=0)
        search, cert = decide(gc, "exact"), decide(gc, "certificate")
        assert search.witness != cert.witness
        assert dataclasses.replace(search, orient=cert.orient) != search
        same = dataclasses.replace(cert, orient=search.orient, reason="", certificate=None, nodes=search.nodes)
        assert (same, hash(same)) == (search, hash(search))


class TestBackends:
    def test_python_matches_active_backend(self):
        for seed in range(15):
            gc = generate_puzzle(2, seed % 3 + 1, seed=seed)
            plan = _SearchPlan.of_bag(pieces_of(gc), 2)
            active = plan.run(limit=10**6, budget=2**62, max_store=0)
            ref = kernels.search_python(*plan.arguments(limit=10**6, budget=2**62, max_store=0))
            assert active[:3] == ref[:3]

    def test_disable_flag_selects_python(self):
        out = subprocess.run(
            [sys.executable, "-c", "from jigsaw import kernels; print(kernels.ACTIVE_BACKEND)"],
            capture_output=True, text=True, env=ENV, check=True,
        )
        assert out.stdout.strip() == "python"


def test_enumerate_with_a_huge_limit_stays_small():
    # the stored-placement buffer is sized by the limit, but only the
    # assemblies found are ever written to it
    code = (
        "import resource\n"
        "from jigsaw.core import generate_puzzle, pieces_of\n"
        "from jigsaw.solver import enumerate_assemblies\n"
        "bag = pieces_of(generate_puzzle(3, 8, 0))\n"
        "small = enumerate_assemblies(bag, 3, limit=100)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "big = enumerate_assemblies(bag, 3, limit=10**7)\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "assert big == small, (len(big), len(small))\n"
        "print(len(big), grown / 1024)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, check=True)
    found, grown_mb = out.stdout.split()
    assert int(found) == 16
    assert float(grown_mb) < 50
