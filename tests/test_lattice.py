import random
from fractions import Fraction

import pytest

from chaircodes.chair import Chair, enumerate_points, volume
from chaircodes.codes import _hnf_candidates
from chaircodes.errors import BadModulus, BudgetExceeded, NonIntegerLattice, NotDiscrete, SingularMatrix
from chaircodes.lattice import (
    Lattice,
    chair_lattice,
    lattice_points_in_box,
    torus_tiling_oracle,
    verify_packing,
    verify_tiling,
)

from oracles import (
    all_valid_chairs,
    brute_force_intersects,
    chair_point_set,
    random_chair,
    random_rational_chair,
    random_unimodular,
)


class TestLatticeBasics:
    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            Lattice([[1, 2], [2, 4]])

    def test_volume_is_abs_det(self):
        assert Lattice([[3, -2], [-2, 3]]).volume == 5
        assert Lattice([[-3, 2], [2, -3]]).volume == 5

    def test_rational_volume(self):
        lat = Lattice([[Fraction(5, 2), Fraction(-3, 2)], [Fraction(-3, 2), Fraction(3, 2)]])
        assert lat.volume == Fraction(3, 2)
        assert not lat.is_integer

    def test_equality_is_basis_independent(self):
        rng = random.Random(3)
        base = Lattice([[3, -2], [-2, 3]])
        for _ in range(20):
            w = random_unimodular(2, rng)
            mixed = Lattice((w @ base.generator_matrix()).entries)
            assert mixed == base

    def test_row_swapped_negation_is_same_lattice(self):
        a = Lattice([[3, -2], [-2, 3]])
        b = Lattice([[2, -3], [-3, 2]])
        assert a == b

    def test_different_lattices_differ(self):
        assert Lattice([[3, -2], [-2, 3]]) != Lattice([[5, 0], [0, 1]])

    def test_json_round_trip(self):
        lat = Lattice([[5, -3, 0], [0, 4, -1], [-3, 0, 3]])
        assert Lattice.from_json_dict(lat.to_json_dict()) == lat


class TestMember:
    def test_zero_always_member(self):
        assert Lattice([[3, -2], [-2, 3]]).member((0, 0))

    def test_sum_of_rows(self):
        assert Lattice([[3, -2], [-2, 3]]).member((1, 1))

    def test_non_member(self):
        assert not Lattice([[3, -2], [-2, 3]]).member((1, 0))

    def test_rational_lattice_member(self):
        lat = Lattice([[Fraction(3, 2), -1], [-1, Fraction(3, 2)]])
        assert lat.member((Fraction(1, 2), Fraction(1, 2)))
        assert not lat.member((1, 0))

    def test_member_iff_zero_label(self):
        rng = random.Random(9)
        for _ in range(30):
            c = random_chair(rng, rng.randint(2, 4))
            lat = chair_lattice(c)
            for _ in range(20):
                p = tuple(rng.randint(-6, 6) for _ in range(c.n))
                label = lat.coset_label(p)
                assert lat.member(p) == all(r == 0 for r in label)


class TestCosetLabel:
    def test_zero_label(self):
        lat = chair_lattice(Chair((3, 3), (2, 2)))
        assert lat.coset_label((0, 0)) == (0,)

    def test_diagonal_lattice(self):
        lat = Lattice([[2, 0], [0, 2]])
        assert lat.coset_label((1, 1)) == (1, 1)
        assert lat.divisors == (2, 2)

    def test_lattice_point_maps_to_zero(self):
        lat = Lattice([[3, -2], [-2, 3]])
        assert lat.coset_label((1, 1)) == (0,)

    def test_chair_points_hit_every_coset_once(self):
        c = Chair((3, 3), (2, 2))
        lat = chair_lattice(c)
        labels = {lat.coset_label(p) for p in enumerate_points(c)}
        assert len(labels) == 5

    def test_homomorphism(self):
        rng = random.Random(13)
        for _ in range(20):
            c = random_chair(rng, rng.randint(2, 4))
            lat = chair_lattice(c)
            divs = [d for d in lat.divisors if d != 1]
            for _ in range(10):
                p = tuple(rng.randint(-9, 9) for _ in range(c.n))
                q = tuple(rng.randint(-9, 9) for _ in range(c.n))
                pq = tuple(a + b for a, b in zip(p, q))
                combined = tuple(
                    (a + b) % d for a, b, d in zip(lat.coset_label(p), lat.coset_label(q), divs)
                )
                assert lat.coset_label(pq) == combined

    def test_rational_lattice_rejected(self):
        lat = Lattice([[Fraction(3, 2), -1], [-1, Fraction(3, 2)]])
        with pytest.raises(NonIntegerLattice):
            lat.coset_label((0, 0))


class TestChairLattice:
    def test_2d(self):
        lat = chair_lattice(Chair((3, 3), (2, 2)))
        assert lat.generator == ((3, -2), (-2, 3))
        assert lat.volume == 5

    def test_3d_uniform(self):
        lat = chair_lattice(Chair((2, 2, 2), (1, 1, 1)))
        assert lat.generator == ((2, -1, 0), (0, 2, -1), (-1, 0, 2))
        assert lat.volume == 7

    def test_3d_figure(self):
        lat = chair_lattice(Chair((5, 4, 3), (3, 3, 1)))
        assert lat.generator == ((5, -3, 0), (0, 4, -1), (-3, 0, 3))
        assert lat.volume == 51

    def test_1d(self):
        lat = chair_lattice(Chair((5,), (2,)))
        assert lat.generator == ((3,),)

    def test_volume_identity_random(self):
        rng = random.Random(21)
        for _ in range(500):
            n = rng.randint(1, 6)
            c = random_chair(rng, n) if rng.random() < 0.7 else random_rational_chair(rng, n)
            assert chair_lattice(c).volume == volume(c)

    def test_rational_chair_lattice(self):
        c = Chair((Fraction(5, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(1, 2)))
        lat = chair_lattice(c)
        assert lat.volume == 3
        assert verify_tiling(lat, c).ok


class TestBoxEnumeration:
    def test_counts_against_direct_scan(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 3)
            c = random_chair(rng, 4)
            if c.n != n:
                c = random_chair(rng, 4 if n > 1 else 3)
            lat = chair_lattice(c)
            bound = rng.randint(1, 6)
            pts = set(lattice_points_in_box(lat, [bound] * c.n))
            # direct scan over the whole box
            from itertools import product

            expected = {
                p
                for p in product(range(-bound, bound + 1), repeat=c.n)
                if lat.member(p)
            }
            assert pts == expected


class TestVerifyPacking:
    def test_chair_lattice_packs(self):
        c = Chair((3, 3), (2, 2))
        assert verify_packing(chair_lattice(c), c).ok

    def test_unit_lattice_too_dense(self):
        c = Chair((2, 2), (1, 1))
        verdict = verify_packing(Lattice([[1, 0], [0, 1]]), c)
        assert not verdict.ok
        assert verdict.witness is not None and any(verdict.witness)

    def test_3d_packing(self):
        c = Chair((5, 4, 3), (3, 3, 1))
        assert verify_packing(chair_lattice(c), c).ok


class TestVerifyTiling:
    def test_chair_lattices_tile(self):
        rng = random.Random(37)
        for _ in range(25):
            c = random_chair(rng, 4)
            assert verify_tiling(chair_lattice(c), c).ok

    def test_wrong_geometry_same_volume(self):
        c = Chair((3, 3), (2, 2))
        verdict = verify_tiling(Lattice([[5, 0], [0, 1]]), c)
        assert not verdict.ok
        assert verdict.witness is not None

    def test_scaled_lattice_volume_mismatch(self):
        c = Chair((3, 3), (2, 2))
        lat = Lattice([[6, -4], [-4, 6]])
        verdict = verify_tiling(lat, c)
        assert not verdict.ok
        assert verdict.reason == "volume mismatch"


class TestTorusOracle:
    def test_small_square(self):
        c = Chair((2, 2), (1, 1))
        verdict = torus_tiling_oracle(chair_lattice(c), c, 3)
        assert verdict.ok
        assert ("cells", "9") in verdict.detail
        assert ("copies", "3") in verdict.detail

    def test_cube(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        verdict = torus_tiling_oracle(chair_lattice(c), c, 7)
        assert verdict.ok
        assert ("cells", "343") in verdict.detail
        assert ("copies", "49") in verdict.detail

    def test_non_packing_fails(self):
        c = Chair((2, 2), (1, 1))
        verdict = torus_tiling_oracle(Lattice([[1, 0], [0, 3]]), c, 3)
        assert not verdict.ok
        assert "covered" in verdict.reason

    def test_bad_modulus(self):
        c = Chair((3, 3), (2, 2))
        with pytest.raises(BadModulus):
            torus_tiling_oracle(chair_lattice(c), c, 2)

    def test_budget(self):
        c = Chair((5, 5, 5), (4, 4, 4))
        with pytest.raises(BudgetExceeded):
            torus_tiling_oracle(chair_lattice(c), c, budget=100)

    def test_needs_discrete_chair(self):
        c = Chair((Fraction(5, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(1, 2)))
        with pytest.raises(NotDiscrete):
            torus_tiling_oracle(chair_lattice(c).integer_model(), c)

    def test_agrees_with_verify_tiling(self):
        rng = random.Random(41)
        cases = [chair_lattice(random_chair(rng, rng.choice([2, 3]))) for _ in range(15)]
        chairs = [random_chair(rng, rng.choice([2, 3])) for _ in range(15)]
        for lat, c in zip(cases, chairs):
            if lat.n != c.n:
                continue
            m = int(lat.volume)
            if m ** c.n > 10**5:
                continue
            tiling = verify_tiling(lat, c)
            torus = torus_tiling_oracle(lat, c, m)
            assert tiling.ok == torus.ok


class TestExhaustiveSmallGrid:
    def test_all_2d_chairs_tile_and_torus_agrees(self):
        for c in all_valid_chairs(2, 5):
            lat = chair_lattice(c)
            assert verify_tiling(lat, c).ok
            assert torus_tiling_oracle(lat, c).ok


class TestEqualVolumeSublattices:
    def test_packing_plus_volume_agrees_with_torus_oracle(self):
        # every sublattice whose index is the chair's volume: verify_tiling
        # decides by packing alone here, so any coset clash must surface as
        # a real overlap witness
        rng = random.Random(47)
        chairs = list(all_valid_chairs(2, 5)) + [random_chair(rng, 3, max_side=3) for _ in range(6)]
        checked = rejected = 0
        for c in chairs:
            points = chair_point_set(c)
            for h in _hnf_candidates(c.n, volume(c)):
                lat = Lattice(h.transpose().entries)
                verdict = verify_tiling(lat, c)
                assert verdict.ok == torus_tiling_oracle(lat, c).ok
                if not verdict.ok:
                    w = verdict.witness
                    assert any(w) and lat.member(w) and brute_force_intersects(points, w)
                    rejected += 1
                checked += 1
        assert checked > 4000 and 0 < rejected < checked
