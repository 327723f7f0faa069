"""Certificate tests: pair/symmetry finders, swap witnesses, birthday bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jigsaw.certificates import (
    RotationPair,
    birthday_upper_bound,
    build_swap_witness,
    find_certificate,
    find_rotation_equivalent_pair,
    find_symmetric_piece,
)
from jigsaw.core import (
    GridColoring,
    Piece,
    PieceBag,
    canonical_piece,
    edge_pairing,
    generate_puzzle,
    identity_assembly,
    pieces_of,
    rotate_tuple,
    side_array,
)
from jigsaw.solver import verify_assembly

from oracles import rotation_pair_reference, symmetric_piece_reference


def distinct_bag():
    # all canonical forms distinct, no symmetric piece
    return PieceBag(
        pieces=(
            Piece((0, 0), (0, 7, 2, 6)),
            Piece((0, 1), (1, 8, 3, 7)),
            Piece((1, 0), (2, 10, 4, 9)),
            Piece((1, 1), (3, 11, 5, 10)),
        )
    )


class TestFinders:
    def test_pair_example(self):
        bag = PieceBag(
            pieces=(
                Piece((0, 0), (1, 2, 3, 4)),
                Piece((0, 1), (2, 3, 4, 1)),
                Piece((1, 0), (5, 6, 7, 8)),
                Piece((1, 1), (9, 9, 8, 7)),
            )
        )
        pair = find_rotation_equivalent_pair(bag)
        assert pair == RotationPair(label_a=(0, 0), label_b=(0, 1), shift=3)
        assert rotate_tuple((1, 2, 3, 4), pair.shift) == (2, 3, 4, 1)

    def test_pair_none_when_all_distinct(self):
        assert find_rotation_equivalent_pair(distinct_bag()) is None

    def test_pair_requires_distinct_pieces(self):
        # a symmetric piece alone is not a pair
        bag = PieceBag(
            pieces=(Piece((0, 0), (5, 5, 5, 5)), Piece((0, 1), (1, 2, 3, 4)))
        )
        assert find_rotation_equivalent_pair(bag) is None

    def test_symmetric_finder(self):
        bag = PieceBag(
            pieces=(
                Piece((0, 0), (1, 2, 3, 4)),
                Piece((0, 1), (4, 9, 4, 9)),
            )
        )
        assert find_symmetric_piece(bag) == (0, 1)
        assert find_symmetric_piece(distinct_bag()) is None

    def test_finder_completeness_by_brute_force(self):
        # whenever the finder says None, no pair exists at all
        for seed in range(25):
            bag = pieces_of(generate_puzzle(3, 3, seed=seed))
            got = find_rotation_equivalent_pair(bag)
            canon = {p.label: canonical_piece(p.sides).canon for p in bag}
            labels = sorted(canon)
            brute = [
                (a, b)
                for i, a in enumerate(labels)
                for b in labels[i + 1 :]
                if canon[a] == canon[b]
            ]
            if got is None:
                assert brute == []
            else:
                assert (
                    (got.label_a, got.label_b) in brute
                    or (got.label_b, got.label_a) in brute
                )


def pair_tuple(pair):
    return None if pair is None else (pair.label_a, pair.label_b, pair.shift)


def assert_scan_matches_reference(bag):
    assert pair_tuple(find_rotation_equivalent_pair(bag)) == rotation_pair_reference(bag)
    assert find_symmetric_piece(bag) == symmetric_piece_reference(bag)


def bag_of(sides):
    return PieceBag(pieces=tuple(Piece((k, 0), tuple(map(int, t))) for k, t in enumerate(sides)))


class TestScanDifferential:
    """The numpy scan against the per-piece dict scan it replaced."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 20, 100, 10**6])
    def test_frozen_seeds(self, n, q):
        for seed in range(4):
            gc = generate_puzzle(n, q, seed=1000 * n + seed)
            bag = pieces_of(gc)
            assert_scan_matches_reference(bag)
            ref = rotation_pair_reference(bag)
            if ref is not None:
                expected = RotationPair(*ref)
            else:
                expected = symmetric_piece_reference(bag)
            assert find_certificate(side_array(gc), n) == expected

    def test_first_pair_beyond_the_first_prefix(self):
        # the pair search reads growing prefixes; plant the only pairs late
        rng = np.random.default_rng(5)
        sides = rng.integers(0, 10**6, size=(5000, 4))
        sides[4321] = sides[2345][[2, 3, 0, 1]]
        sides[4999] = sides[10][[1, 2, 3, 0]]
        assert_scan_matches_reference(bag_of(sides))
        assert find_rotation_equivalent_pair(bag_of(sides)).label_b == (4321, 0)

    def test_more_colours_than_one_code_holds(self):
        # over 55,108 distinct colours: a 4-digit code in that base overflows int64
        rng = np.random.default_rng(6)
        sides = rng.integers(0, 10**12, size=(15000, 4))
        sides[14000] = sides[13000][[3, 0, 1, 2]]
        sides[14500] = sides[9000][[2, 3, 0, 1]]
        sides[14600, 2:] = sides[14600, :2]
        assert len(np.unique(sides)) > 55108
        bag = bag_of(sides)
        assert_scan_matches_reference(bag)
        assert find_symmetric_piece(bag) == (14600, 0)

    def test_no_false_pair_when_one_code_would_wrap(self):
        # 65,559 colours, so colour = rank.  In base k = 65559 the 4-digit
        # codes of (0, 0, 0, 0) and of B agree modulo 2**64, and every other
        # rotation of B codes higher: a wrapping int64 code pairs them.
        k = 65559
        b = (65467, 3173, 16895, 17605)
        fill = [tuple((4 * i + d) % k for d in range(4)) for i in range(-(-k // 4))]
        bag = bag_of([(0, 0, 0, 0), b, *fill])
        assert find_rotation_equivalent_pair(bag) is None
        assert_scan_matches_reference(bag)

    @given(
        sides=st.lists(st.tuples(*[st.integers(-3, 4)] * 4), max_size=12),
        labels=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=12, max_size=12, unique=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_bags(self, sides, labels):
        bag = PieceBag(pieces=tuple(Piece(label, t) for label, t in zip(labels, sides)))
        assert_scan_matches_reference(bag)


class TestSwapWitness:
    def test_pair_witness_large_grid(self):
        gc = generate_puzzle(30, 5, seed=7)
        bag = pieces_of(gc)
        pair = find_rotation_equivalent_pair(bag)
        assert pair is not None
        w = build_swap_witness(gc, pair)
        assert verify_assembly(bag, w)
        assert edge_pairing(w) != edge_pairing(identity_assembly(30))

    def test_pair_witness_small(self):
        # craft a 2x2 puzzle with an equal pair: constant colouring
        gc = generate_puzzle(2, 1, seed=0)
        pair = find_rotation_equivalent_pair(pieces_of(gc))
        assert pair is not None
        w = build_swap_witness(gc, pair)
        assert verify_assembly(pieces_of(gc), w)
        assert edge_pairing(w) != edge_pairing(identity_assembly(2))

    def test_symmetric_witness(self):
        found = None
        for seed in range(200):
            gc = generate_puzzle(3, 2, seed=seed)
            label = find_symmetric_piece(pieces_of(gc))
            if label is not None:
                found = (gc, label)
                break
        assert found is not None, "no symmetric piece in 200 seeded puzzles"
        gc, label = found
        w = build_swap_witness(gc, label)
        assert verify_assembly(pieces_of(gc), w)
        assert edge_pairing(w) != edge_pairing(identity_assembly(gc.n))
        # the symmetric piece stays at its own cell, rotated
        i, j = label
        lab, r = w.cells[i][j]
        assert lab == label and r != 0

    @pytest.mark.parametrize("left,period", [(3, 1), (4, 2)])
    def test_symmetric_witness_turns_by_the_period(self, left, period):
        # piece (0, 0) reads (3, left, 3, left): one colour all round turns
        # by a quarter, two colours by a half
        h = np.array([[3, 10], [3, 11], [12, 13]])
        v = np.array([[left, left, 14], [15, 16, 17]])
        gc = GridColoring(n=2, q=18, h=h, v=v)
        w = build_swap_witness(gc, (0, 0))
        assert w.cells[0][0] == ((0, 0), period)
        assert verify_assembly(pieces_of(gc), w)

    def test_rejects_n1(self):
        gc = generate_puzzle(1, 1, seed=0)
        with pytest.raises(ValueError, match="1x1"):
            build_swap_witness(gc, (0, 0))

    def test_rejects_stale_pair(self):
        gc = generate_puzzle(2, 1, seed=0)
        with pytest.raises(ValueError):
            build_swap_witness(gc, RotationPair((0, 0), (5, 5), shift=0))

    def test_rejects_wrong_shift(self):
        gc = generate_puzzle(2, 12, seed=3)
        # labels exist but the claimed rotation relation is almost surely false
        pair = RotationPair((0, 0), (1, 1), shift=1)
        a = pieces_of(gc).by_label()[(0, 0)].sides
        b = pieces_of(gc).by_label()[(1, 1)].sides
        if rotate_tuple(a, 1) != b:
            with pytest.raises(ValueError):
                build_swap_witness(gc, pair)
        # one colour: every shift matches, but only 0..3 are rotations
        for shift in (-1, 4):
            with pytest.raises(ValueError, match="not shifts"):
                build_swap_witness(generate_puzzle(2, 1, seed=0), RotationPair((0, 0), (1, 1), shift=shift))

    def test_rejects_coinciding_labels(self):
        gc = generate_puzzle(2, 1, seed=0)
        with pytest.raises(ValueError):
            build_swap_witness(gc, RotationPair((0, 0), (0, 0), shift=0))

    def test_rejects_asymmetric_piece(self):
        h = np.array([[0, 1], [2, 3], [4, 5]])
        v = np.array([[6, 7, 8], [9, 10, 11]])
        gc = GridColoring(n=2, q=12, h=h, v=v)
        with pytest.raises(ValueError, match="symmetr"):
            build_swap_witness(gc, (0, 0))


class TestBirthdayBound:
    def test_values(self):
        assert birthday_upper_bound(2, 1) == pytest.approx(math.exp(-1.0))
        assert birthday_upper_bound(30, 5) == pytest.approx(math.exp(-161.64))

    def test_monotone(self):
        qs = [birthday_upper_bound(10, q) for q in range(1, 8)]
        assert qs == sorted(qs)  # larger q: bound approaches 1
        ns = [birthday_upper_bound(n, 4) for n in range(2, 12)]
        assert ns == sorted(ns, reverse=True)

    def test_range_and_errors(self):
        assert 0.0 < birthday_upper_bound(5, 3) < 1.0
        with pytest.raises(ValueError):
            birthday_upper_bound(1, 3)
        with pytest.raises(ValueError):
            birthday_upper_bound(4, 0)

    def test_empirical_no_pair_fraction_below_bound(self):
        # n=6, q=6: bound = exp(-1224/10368) ~ 0.8886.  Frozen master
        # seed; 400 trials; empirical no-pair fraction must not exceed
        # the bound by more than 3 standard errors.
        n, q, trials = 6, 6, 400
        bound = birthday_upper_bound(n, q)
        none_found = 0
        for t in range(trials):
            bag = pieces_of(generate_puzzle(n, q, seed=50_000 + t))
            if find_rotation_equivalent_pair(bag) is None:
                none_found += 1
        frac = none_found / trials
        se = math.sqrt(max(frac * (1 - frac), 1e-9) / trials)
        assert frac <= bound + 3 * se, (frac, bound, se)
