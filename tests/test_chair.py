import random
from fractions import Fraction
from itertools import product

import pytest

from chaircodes.chair import Chair, as_exact, contains, enumerate_points, shifted_copies_intersect, volume
from chaircodes.errors import BudgetExceeded, DimensionMismatch, InvalidChair, NotDiscrete

from oracles import (
    all_valid_chairs,
    brute_force_intersects,
    chair_point_set,
    difference_set,
    random_chair,
    random_rational_chair,
)


class TestConstruction:
    def test_notch_must_be_smaller(self):
        with pytest.raises(InvalidChair):
            Chair((2, 2), (2, 2))

    def test_notch_must_be_positive(self):
        with pytest.raises(InvalidChair):
            Chair((2, 1), (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(InvalidChair):
            Chair((2, 2, 2), (1, 1))

    def test_floats_rejected(self):
        with pytest.raises(InvalidChair):
            Chair((2.5, 2), (1, 1))

    def test_fraction_strings_accepted(self):
        c = Chair(("5/2", "3/2"), ("3/2", "1/2"))
        assert c.sides == (Fraction(5, 2), Fraction(3, 2))
        assert not c.is_discrete

    @pytest.mark.parametrize("text", ["1e4000000", "1E2", "1_000", " 3 ", "+3", "2.5", "5/-2", "0x10", ""])
    def test_other_text_rejected(self, text):
        # only -?[0-9]+(/[0-9]+)? is read: exponent notation built a huge
        # integer before any check applied
        with pytest.raises(ValueError, match="expected a decimal integer or a fraction a/b"):
            as_exact(text)
        with pytest.raises(InvalidChair, match="expected a decimal integer"):
            Chair((text, 2), (1, 1))

    @pytest.mark.parametrize("text, value", [("3", 3), ("-3", -3), ("007", 7), ("10/4", Fraction(5, 2)),
                                             ("-6/3", -2), ("0/5", 0)])
    def test_decimal_and_fraction_text_accepted(self, text, value):
        assert as_exact(text) == value and type(as_exact(text)) is type(value)

    def test_json_round_trip(self):
        # the "L"/"K" strings of a report's parameters rebuild the chair
        for c in (Chair((5, 4, 3), (3, 3, 1)), Chair((Fraction(5, 2), 2), (Fraction(3, 2), 1))):
            data = c.to_json_dict()
            assert Chair(data["L"], data["K"]) == c


class TestVolume:
    def test_figure_parameters(self):
        c = Chair((5, 4, 3), (3, 3, 1))
        assert volume(c) == 51
        assert len(enumerate_points(c)) == 51

    def test_small_square(self):
        assert volume(Chair((2, 2), (1, 1))) == 3
        assert enumerate_points(Chair((2, 2), (1, 1))) == [(0, 0), (0, 1), (1, 0)]

    def test_cube_minus_corner(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        assert volume(c) == 2**3 - 1**3 == 7

    def test_rational_volume(self):
        c = Chair((Fraction(5, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(1, 2)))
        assert volume(c) == 3


class TestContains:
    def test_on_free_face(self):
        assert contains(Chair((2, 2), (1, 1)), (0, 1))

    def test_removed_corner(self):
        assert not contains(Chair((2, 2), (1, 1)), (1, 1))

    def test_no_qualifying_coordinate(self):
        # (4,3,2) is in the removed box (every x_j >= l_j - k_j); (4,3,1) is
        # not, because x_3 = 1 < 3 - 1 — both confirmed by the box-scan oracle
        assert not contains(Chair((5, 4, 3), (3, 3, 1)), (4, 3, 2))
        assert contains(Chair((5, 4, 3), (3, 3, 1)), (4, 3, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(Chair((2, 2), (1, 1)), (0, 0, 0))

    def test_contained_points_are_enumerated(self):
        c = Chair((3, 4), (2, 1))
        pts = set(enumerate_points(c))
        for p in product(range(3), range(4)):
            assert contains(c, p) == (p in pts)


class TestEnumerate:
    def test_listing(self):
        assert enumerate_points(Chair((3, 3), (2, 2))) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]

    def test_sorted_lexicographically(self):
        pts = enumerate_points(Chair((4, 3, 2), (2, 2, 1)))
        assert pts == sorted(pts)

    def test_not_discrete(self):
        with pytest.raises(NotDiscrete):
            enumerate_points(Chair((Fraction(5, 2), 2), (1, 1)))

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("CHAIRCODES_BUDGET", "1000")
        with pytest.raises(BudgetExceeded):
            enumerate_points(Chair((100, 100, 100), (1, 1, 1)))

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("CHAIRCODES_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            enumerate_points(Chair((4, 4), (1, 1)))  # 15 points

    def test_count_matches_volume(self):
        for c in all_valid_chairs(2, 5):
            assert len(enumerate_points(c)) == volume(c)

    def test_matches_box_filter(self):
        # the n boxes, sorted, against the full box filtered by contains:
        # every chair with n <= 3 and sides <= 4, and seeded chairs n = 4-6
        rng = random.Random(17)
        chairs = [c for n in (1, 2, 3) for c in all_valid_chairs(n, 4)]
        chairs += [random_chair(rng, n, 10 - n) for n in (4, 5, 6) for _ in range(40)]
        for c in chairs:
            expected = [p for p in product(*map(range, c.sides)) if contains(c, p)]
            assert enumerate_points(c) == expected, c

    def test_long_notch_stays_within_volume(self, monkeypatch):
        # 19,999 points of a 10^8-cell box: the enumeration is bounded by
        # the chair's volume, which is all the budget is charged
        monkeypatch.setenv("CHAIRCODES_BUDGET", "20000")
        pts = enumerate_points(Chair((10**4, 10**4), (9999, 9999)))
        assert pts == [(0, y) for y in range(10**4)] + [(x, 0) for x in range(1, 10**4)]


class TestShiftedCopiesIntersect:
    def test_zero_shift(self):
        assert shifted_copies_intersect(Chair((2, 2), (1, 1)), (0, 0))

    def test_disjoint_diagonal(self):
        assert not shifted_copies_intersect(Chair((2, 2), (1, 1)), (1, 1))

    def test_mixed_sign_shift(self):
        assert shifted_copies_intersect(Chair((3, 3), (2, 2)), (1, -1))

    def test_rational_shift(self):
        c = Chair((Fraction(5, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(1, 2)))
        assert shifted_copies_intersect(c, (Fraction(1, 2), Fraction(1, 2)))
        assert not shifted_copies_intersect(c, (Fraction(5, 2), 0))

    def test_symmetric_under_negation(self):
        rng = random.Random(5)
        for _ in range(200):
            c = random_rational_chair(rng, rng.randint(1, 4))
            x = tuple(Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 4, 5, 7])) for _ in range(c.n))
            assert shifted_copies_intersect(c, x) == shifted_copies_intersect(c, tuple(-v for v in x))

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_agreement_with_brute_force(self, n):
        for c in all_valid_chairs(n, 5):
            pts = chair_point_set(c)
            sides = c.int_sides()
            for shift in product(*[range(-l, l + 1) for l in sides]):
                assert shifted_copies_intersect(c, shift) == brute_force_intersects(pts, shift)

    def test_exhaustive_agreement_3d(self):
        # the overlap criterion must match the difference-set oracle on every
        # 3d chair with sides up to 5 and every shift in the relevant box
        for c in all_valid_chairs(3, 5):
            diffs = difference_set(chair_point_set(c))
            sides = c.int_sides()
            for shift in product(*[range(-l, l + 1) for l in sides]):
                assert shifted_copies_intersect(c, shift) == (shift in diffs)
