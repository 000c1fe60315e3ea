import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from chaircodes.chair import Chair, enumerate_points, volume
from chaircodes.errors import (
    BadModulus,
    BudgetExceeded,
    DimensionMismatch,
    NonIntegerLattice,
    NotDiscrete,
    SingularMatrix,
)
from chaircodes.exactmath import IntMatrix
from chaircodes.lattice import (
    Lattice,
    box_join,
    chair_lattice,
    join_size,
    lattice_points_in_box,
    torus_tiling_oracle,
    verify_packing,
    verify_tiling,
)

from oracles import (
    all_valid_chairs,
    brute_force_intersects,
    chair_point_set,
    hnf_candidates,
    random_chair,
    random_rational_chair,
    random_unimodular,
    reference_lattice_points_in_box,
    reference_member,
    reference_torus_tiling_oracle,
    reference_verify_packing,
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

    def test_rational_equality_matches_common_rescaling(self):
        # equality by scale and integer model agrees with rescaling both
        # generators by the lcm of their scales and comparing HNFs
        rng = random.Random(71)
        for _ in range(200):
            n = rng.randint(1, 3)
            try:
                a = Lattice([[Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])) for _ in range(n)]
                             for _ in range(n)])
            except SingularMatrix:
                continue
            w = random_unimodular(n, rng)
            mixed = Lattice([[sum(x * y for x, y in zip(row, col)) for col in zip(*a.generator)]
                             for row in w.entries])
            assert mixed == a
            b = Lattice([[x * f for x in row] for row in a.generator
                         for f in [rng.choice([1, 1, 2, Fraction(1, 2)])]])
            s = math.lcm(a.scale, b.scale)
            rescaled = (Lattice([[x * s for x in row] for row in a.generator]).canonical()
                        == Lattice([[x * s for x in row] for row in b.generator]).canonical())
            assert (a == b) == rescaled


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

    def test_member_matches_hnf_residue_reference(self):
        # integer and rational lattices, probed at integer and rational
        # points and at lattice points
        rng = random.Random(9)
        hits = 0
        for trial in range(120):
            n = rng.randint(1, 4)
            c = random_chair(rng, n) if trial % 2 else random_rational_chair(rng, n)
            u = random_unimodular(n, rng).entries
            rows = [[sum(u[i][k] * b[j] for k, b in enumerate(chair_lattice(c).generator)) for j in range(n)]
                    for i in range(n)]
            lat = Lattice(rows)
            for _ in range(20):
                p = [Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3])) for _ in range(n)]
                if rng.random() < 0.3:
                    coeffs = [rng.randint(-2, 2) for _ in range(n)]
                    p = [sum(a * r[j] for a, r in zip(coeffs, rows)) for j in range(n)]
                want = reference_member(lat, p)
                hits += want
                assert lat.member(p) == want, (rows, p)
        assert hits > 200

    def test_float_point_refused(self):
        with pytest.raises(ValueError):
            Lattice([[3, -2], [-2, 3]]).member((1.5, 0))


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


def _box_cases(rng: random.Random, count: int):
    """(kind, lattice, bounds) for comparing the box join with the HNF walk.

    Kinds: chair lattices with their packing bounds l_i - 1, perturbed chair
    lattices, dense lattices of volume <= 3, lattices whose quotient has 2-4
    nontrivial factors, integer models of rational chair lattices, and zero
    bounds.  The random bounds keep the walk's box small."""
    caps = {1: 30, 2: 10, 3: 5, 4: 3, 5: 2, 6: 2}
    kinds = ("chair", "perturbed", "dense", "factors", "rational", "zero")
    made = 0
    while made < count:
        kind = kinds[made % len(kinds)]
        n = rng.randint(1, 6)
        bounds = [rng.randint(0, caps[n]) for _ in range(n)]
        if kind in ("chair", "perturbed"):
            c = random_chair(rng, n, max(2, 7 - n))
            bounds = [l - 1 for l in c.int_sides()]
            rows = [list(r) for r in chair_lattice(c).generator]
            if kind == "perturbed":
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] += rng.choice([-2, -1, 1, 2])
        elif kind in ("dense", "factors"):
            if kind == "dense":
                diag = [1] * (n - 1) + [rng.randint(1, 3)]
            else:
                k = rng.randint(2, min(4, n)) if n > 1 else 1
                g = rng.choice([2, 3])
                diag = [1] * (n - k) + [g * rng.choice([1, 1, 2, 3]) for _ in range(k)]
            d = IntMatrix(tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)))
            rows = (random_unimodular(n, rng) @ d @ random_unimodular(n, rng)).entries
        elif kind == "rational":
            rows = chair_lattice(random_rational_chair(rng, n)).integer_model().generator
        else:
            c = random_chair(rng, n, 4)
            rows = chair_lattice(c).generator
            bounds = [0] * n if rng.random() < 0.5 else [b * rng.randint(0, 1) for b in bounds]
        try:
            lat = Lattice(rows)
        except SingularMatrix:
            continue
        made += 1
        yield kind, lat, bounds


class TestBoxJoin:
    def test_matches_hnf_walk(self):
        # same points in the same order as the walk down the Hermite basis
        rng = random.Random(101)
        points = Counter()
        factors = Counter()
        for kind, lat, bounds in _box_cases(rng, 2100):
            got = list(lattice_points_in_box(lat, bounds))
            joined = [xa + xb for xa, xbs in box_join(lat.labeling(), bounds) for xb in xbs]
            assert got == joined == list(reference_lattice_points_in_box(lat, bounds)), (kind, lat, bounds)
            points[kind] += len(got)
            factors[len(lat.labeling().divisors)] += kind == "factors"
        assert sum(points.values()) > 50_000
        assert points["dense"] > 20_000 and points["zero"] >= 2100 // 6
        assert all(factors[k] > 20 for k in (2, 3, 4))

    def test_sparse_lattices_walk_within_budget(self, monkeypatch):
        # large Hermite diagonal entries leave few points in a box whose
        # half tables exceed the budget; the walk finds them
        monkeypatch.setenv("CHAIRCODES_BUDGET", "1000")
        rng = random.Random(131)
        points = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            rows = [[rng.randint(200, 3000) if i == j else rng.randint(-50, 50) * (j > i) for j in range(n)]
                    for i in range(n)]
            lat = Lattice(rows)
            bounds = [rng.randint(1000, 3000) for _ in range(n)]
            assert join_size(bounds) > 1000
            got = list(lattice_points_in_box(lat, bounds))
            assert got == list(reference_lattice_points_in_box(lat, bounds)), (lat, bounds)
            points += len(got)
        assert points > 3000

    def test_budget_covers_the_larger_half(self):
        lat = chair_lattice(Chair((7,) * 4, (4,) * 4))
        assert list(lattice_points_in_box(lat, [6] * 4))  # halves of 13^2 cells
        with pytest.raises(BudgetExceeded):
            next(box_join(lat.labeling(), [6] * 4, budget=13**2 - 1))

    def test_budget_covers_the_walk(self, monkeypatch):
        # a walk of 3,335 nodes against half tables of 10,001 entries
        lat = Lattice([[3]])
        monkeypatch.setenv("CHAIRCODES_BUDGET", "3334")
        with pytest.raises(BudgetExceeded):
            lattice_points_in_box(lat, [5000])
        monkeypatch.setenv("CHAIRCODES_BUDGET", "3335")
        assert len(list(lattice_points_in_box(lat, [5000]))) == 3333

    def test_bounds_must_match_dimension(self):
        lat = chair_lattice(Chair((3, 3, 3), (2, 2, 2)))
        for bounds in ([1, 1], [1, 1, 1, 1]):
            with pytest.raises(DimensionMismatch):
                list(lattice_points_in_box(lat, bounds))

    @pytest.mark.parametrize("rows, sides, notch, reason", [
        ([[1999999]], (2000000,), (1,), None),
        ([[2000, 0, 0], [0, 2000, 0], [0, 0, 2000]], (2000,) * 3, (1,) * 3, "volume mismatch"),
        ([[1, 777], [0, 1999999]], (3, 2000000), (1, 1), "copies at 0 and witness overlap"),
    ])
    def test_sparse_lattice_in_large_box(self, rows, sides, notch, reason):
        # half tables of 4-16 million entries; the walk visits at most 14 nodes
        verdict = verify_tiling(Lattice(rows), Chair(sides, notch))
        assert verdict.reason == (reason or "") and verdict.ok == (reason is None)

    def test_14d_chair_exceeds_budget(self):
        # halves of 13^7 cells; a walk would visit about 13^13 nodes
        c = Chair((7,) * 14, (4,) * 14)
        with pytest.raises(BudgetExceeded):
            verify_tiling(chair_lattice(c), c)


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

    def test_rational_matches_common_denominator_reference(self):
        # same verdict and witness as scaling lattice and chair together; the
        # lattice is the chair's own or another chair's, integer or rational,
        # so the chair's denominators need not divide the lattice's scale
        rng = random.Random(67)
        checked = rejected = 0
        for _ in range(300):
            c = random_rational_chair(rng, rng.randint(1, 3))
            base = rng.choice([c, random_chair(rng, c.n), random_rational_chair(rng, c.n)])
            rows = [list(r) for r in chair_lattice(base).generator]
            for _ in range(rng.randint(0, 2)):
                i, j = rng.randrange(c.n), rng.randrange(c.n)
                rows[i][j] += Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
            try:
                lat = Lattice(rows)
            except SingularMatrix:
                continue
            verdict = verify_packing(lat, c)
            assert verdict == reference_verify_packing(lat, c)
            checked += 1
            rejected += not verdict.ok
        assert checked > 250 and 30 < rejected < checked


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

    def test_matches_numpy_reference(self):
        # full Verdict equality, witness and details included, and the same
        # errors, against the int64 cover count the bit-parallel pass replaced
        rng = random.Random(53)
        outcomes = Counter()
        for case in range(600):
            n = case % 4 + 1
            while True:
                c = random_chair(rng, n, max_side=3 if n == 4 else 5)
                other = c if rng.random() < 0.5 else random_chair(rng, n, max_side=3 if n == 4 else 5)
                rows = [list(r) for r in chair_lattice(other).generator]
                if rng.random() < 0.4:
                    rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
                try:
                    lat = Lattice(rows)
                except SingularMatrix:
                    continue
                exponent = lat.divisors[-1]
                if rng.random() < 0.9:
                    m = exponent * rng.choice((1, 1, 2, 3))
                else:
                    m = rng.randint(0, 3 * exponent)
                if m**n <= (10**5 if n == 4 else 5000):
                    break
            budget = max(1, m**n - 1) if rng.random() < 0.05 else None
            got = []
            for oracle in (torus_tiling_oracle, reference_torus_tiling_oracle):
                try:
                    got.append(oracle(lat, c, m, budget))
                except (BadModulus, BudgetExceeded) as exc:
                    got.append(type(exc).__name__)
            assert got[0] == got[1], (rows, c.sides, c.notch, m, budget)
            verdict = got[0]
            outcomes[verdict if isinstance(verdict, str) else verdict.reason or "ok"] += 1
            outcomes["m != volume"] += m != lat.volume
        for kind in ("ok", "torus cell uncovered", "torus cell doubly covered", "m != volume"):
            assert outcomes[kind] >= 50, outcomes
        assert min(outcomes["BadModulus"], outcomes["BudgetExceeded"]) > 0, outcomes


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
            for h in hnf_candidates(c.n, volume(c)):
                lat = Lattice(tuple(zip(*h)))
                verdict = verify_tiling(lat, c)
                assert verdict.ok == torus_tiling_oracle(lat, c).ok
                if not verdict.ok:
                    w = verdict.witness
                    assert any(w) and lat.member(w) and brute_force_intersects(points, w)
                    rejected += 1
                checked += 1
        assert checked > 4000 and 0 < rejected < checked
