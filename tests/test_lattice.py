import math
import os
import random
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chaircodes import lattice as lattice_module
from chaircodes.chair import Chair, enumerate_points, volume
from chaircodes.errors import (
    BadParameters,
    BudgetExceeded,
    DimensionMismatch,
    InvalidChair,
    NonIntegerLattice,
    NonSquare,
    NotATiling,
    NotDiscrete,
    SingularMatrix,
)
from chaircodes.exactmath import IntMatrix, determinant
from chaircodes.lattice import (
    Lattice,
    SplittingSequence,
    Verdict,
    chair_cycle,
    chair_lattice,
    chair_rows,
    lattice_points_in_box,
    torus_tiling_oracle,
    verify_packing,
    verify_tiling,
)
from chaircodes.splitting import splitting_to_lattice, uniform_chair_splitting
from chaircodes.wom import build_coloring

from oracles import (
    all_valid_chairs,
    brute_force_intersects,
    chair_point_set,
    hnf_candidates,
    random_chair,
    random_rational_chair,
    random_unimodular,
    reference_box_join,
    reference_lattice_points_in_box,
    reference_member,
    reference_torus_tiling_oracle,
    reference_verify_packing,
)


class TestLatticeBasics:
    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix, match="^basis rows are linearly dependent$"):
            Lattice([[1, 2], [2, 4]])

    def test_volume_is_abs_det(self):
        assert Lattice([[3, -2], [-2, 3]]).volume == 5
        assert Lattice([[-3, 2], [2, -3]]).volume == 5

    def test_volume_matches_determinant_reference(self):
        # the volume read off the Hermite diagonal is |det(sL)| / s^n, value
        # and type, on integer, rational and unimodular-image lattices
        rng = random.Random(24)
        kinds = Counter()
        while sum(kinds.values()) < 360:
            n = rng.randint(1, 5)
            kind = ("integer", "rational", "unimodular image")[sum(kinds.values()) % 3]
            den = [1] if kind == "integer" else [1, 2, 3, 4, 6]
            rows = [[Fraction(rng.randint(-7, 7), rng.choice(den)) for _ in range(n)] for _ in range(n)]
            if kind == "unimodular image":
                rows = (random_unimodular(n, rng) @ chair_lattice(random_chair(rng, n)).generator_matrix()).to_lists()
            s = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
            det = determinant(IntMatrix(tuple(tuple(int(x * s) for x in row) for row in rows)))
            if det == 0:
                with pytest.raises(SingularMatrix, match="^basis rows are linearly dependent$"):
                    Lattice(rows)
                continue
            want = Fraction(abs(det), s**n)
            got = Lattice(rows).volume
            assert (got, type(got)) == (want, int if want.denominator == 1 else Fraction), rows
            kinds[kind, det < 0] += 1
        assert min(kinds.values()) >= 30, kinds

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

    def test_member_matches_smith_label_reference(self):
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
        assert lat.labeling().divisors == (2, 2)

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
            divs = lat.labeling().divisors
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
    """(kind, lattice, bounds) for comparing the box search with the label join
    and the HNF walk.

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
        # and the join of half-box labels
        rng = random.Random(101)
        points = Counter()
        factors = Counter()
        for kind, lat, bounds in _box_cases(rng, 2100):
            got = list(lattice_points_in_box(lat, bounds))
            joined = list(reference_box_join(lat, bounds))
            assert got == joined == list(reference_lattice_points_in_box(lat, bounds)), (kind, lat, bounds)
            points[kind] += len(got)
            factors[len(lat.labeling().divisors)] += kind == "factors"
        assert sum(points.values()) > 50_000
        assert points["dense"] > 20_000 and points["zero"] >= 2100 // 6
        assert all(factors[k] > 20 for k in (2, 3, 4))

    def test_sparse_lattices_walk_within_budget(self, monkeypatch):
        # large Hermite diagonal entries leave few points in a box whose
        # every half exceeds the budget; the walk finds them
        monkeypatch.setenv("CHAIRCODES_BUDGET", "1000")
        rng = random.Random(131)
        points = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            rows = [[rng.randint(200, 3000) if i == j else rng.randint(-50, 50) * (j > i) for j in range(n)]
                    for i in range(n)]
            lat = Lattice(rows)
            bounds = [rng.randint(1000, 3000) for _ in range(n)]
            assert all(2 * b + 1 > 1000 for b in bounds)
            got = list(lattice_points_in_box(lat, bounds))
            assert got == list(reference_lattice_points_in_box(lat, bounds)), (lat, bounds)
            points += len(got)
        assert points > 3000

    def test_budget_covers_the_larger_half(self, monkeypatch):
        lat = chair_lattice(Chair((7,) * 4, (4,) * 4))
        # split after two coordinates: a walk of 13^2 leaves and a table of
        # 13^2 cells
        monkeypatch.setenv("CHAIRCODES_BUDGET", str(13**2))
        assert len(list(lattice_points_in_box(lat, [6] * 4))) == 5
        monkeypatch.setenv("CHAIRCODES_BUDGET", str(13**2 - 1))
        with pytest.raises(BudgetExceeded, match="search needs 169 items"):
            lattice_points_in_box(lat, [6] * 4)

    def test_budget_covers_the_walk(self, monkeypatch):
        # a walk of 3,334 leaves against a table of 10,001 cells
        lat = Lattice([[3]])
        monkeypatch.setenv("CHAIRCODES_BUDGET", "3333")
        with pytest.raises(BudgetExceeded, match="search needs 3334 items"):
            lattice_points_in_box(lat, [5000])
        monkeypatch.setenv("CHAIRCODES_BUDGET", "3334")
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
        # boxes of 4-16 million cells per half; the walk visits at most 14 nodes
        verdict = verify_tiling(Lattice(rows), Chair(sides, notch))
        assert verdict.reason == (reason or "") and verdict.ok == (reason is None)

    def test_14d_chair_exceeds_budget(self, monkeypatch):
        # a box search charged 13^7 items at its best split, but
        # the lattice holds the chair's rows and has its volume, so no box is
        # searched and nothing is charged
        c = Chair((7,) * 14, (4,) * 14)
        assert verify_tiling(chair_lattice(c), c) == Verdict.passed()
        c = Chair((4,) * 14, (3,) * 14)  # the sphere chair 4^14 - 3^14
        monkeypatch.setenv("CHAIRCODES_BUDGET", "1")
        assert verify_tiling(chair_lattice(c), c) == Verdict.passed()


def _band_cases(rng: random.Random, count: int):
    """(kind, rows, bounds) of cyclic-bidiagonal (band) bases for the box search.

    Kinds: chair rows with the packing bounds l_i - 1; chair rows with some
    rows negated and random bounds; random bands whose diagonal and
    off-diagonal entries take either sign (|d_j| > |o_j|); and integer models
    of rational chairs with the bounds verify_packing uses.  Sides and bounds
    are capped so that the Hermite walk of the reference stays small."""
    caps = {2: 12, 3: 6, 4: 4, 5: 3, 6: 2}
    kinds = ("chair", "negated", "signs", "rational")
    for made in range(count):
        kind = kinds[made % len(kinds)]
        n = rng.randint(2, 6)
        bounds = [rng.randint(0, caps[n]) for _ in range(n)]
        if kind in ("chair", "negated"):
            c = random_chair(rng, n, caps[n] + 1)
            rows = chair_rows(c.int_sides(), c.int_notch())
            if kind == "chair":
                bounds = [l - 1 for l in c.int_sides()]
            else:
                rows = [[-x for x in row] if rng.random() < 0.5 else row for row in rows]
        elif kind == "signs":
            diag = [rng.choice([-1, 1]) * rng.randint(1, caps[n] + 1) for _ in range(n)]
            off = [rng.choice([-1, 1]) * rng.randint(0, abs(d) - 1) for d in diag]
            rows = [[diag[j] if i == j else off[i] if i == (j + 1) % n else 0 for i in range(n)]
                    for j in range(n)]
        else:
            n = rng.randint(2, 3)
            den = rng.choice([2, 3])
            sides = [Fraction(rng.randint(den + 1, 3 * den), den) for _ in range(n)]
            c = Chair(tuple(sides), tuple(Fraction(rng.randint(1, int(l * den) - 1), den) for l in sides))
            lat = chair_lattice(c)
            rows = lat.generator_matrix().entries if lat.is_integer else lat.integer_model().generator
            bounds = [math.ceil(lat.scale * l) - 1 for l in c.sides]
        yield kind, rows, bounds


class TestBandWalk:
    """lattice_points_in_box on cyclic-bidiagonal (band) bases such as
    chair_rows."""

    def test_matches_hnf_walk(self):
        # lattice_points_in_box gives the points of the walk down the
        # Hermite basis in the same order
        rng = random.Random(151)
        points = Counter()
        cases = Counter()
        for kind, rows, bounds in _band_cases(rng, 4000):  # 3,000 from chairs
            lat = Lattice(rows)
            expected = list(reference_lattice_points_in_box(lat, bounds))
            assert list(lattice_points_in_box(lat, bounds)) == expected, (kind, rows, bounds)
            points[kind] += len(expected)
            cases[kind, len(rows)] += 1
        assert all(cases[kind, n] > 50 for kind in ("chair", "negated", "signs") for n in range(2, 7))
        assert cases["rational", 2] > 400 and cases["rational", 3] > 400
        assert min(points.values()) > 1500

    @pytest.mark.parametrize("n", range(2, 10))
    def test_seven_four_chairs(self, n):
        # the reference walk takes 13^(n-1) steps, so from n = 6 on the
        # oracle is the join of half-box labels, whose tables stay within the
        # budget to n = 9
        c = Chair((7,) * n, (4,) * n)
        lat = chair_lattice(c)
        bounds = [6] * n
        oracle = reference_lattice_points_in_box(lat, bounds) if n < 6 else reference_box_join(lat, bounds)
        got = list(lattice_points_in_box(lat, bounds))
        assert got == list(oracle)
        assert len(got) == 5

    def test_hermite_walk_kept_within_budget(self, monkeypatch):
        # a Hermite walk of at most 9 leaves against a table of 775 cells for
        # the second coordinate: with a budget of 20 the plain walk runs
        rows, bounds = [[50, -73], [13, -100]], [4, 387]
        lat = Lattice(rows)
        monkeypatch.setenv("CHAIRCODES_BUDGET", "20")
        assert list(lattice_points_in_box(lat, bounds)) == list(reference_lattice_points_in_box(lat, bounds))


def _mixed_hermite(rng: random.Random, n: int):
    """Basis rows (the columns of a lower-triangular Hermite form) and bounds
    of a lattice that is sparse on some axes and dense on the others: a
    diagonal entry d of 100-3000 and a bound of d to 4d on the sparse axes, a
    diagonal entry of 1-3 and a bound of 1-3 on the dense ones."""
    sparse = [rng.random() < 0.5 for _ in range(n)]
    sparse[rng.randrange(n)] = True
    sparse[rng.randrange(n)] = False
    if rng.random() < 0.5:  # sparse axes first, where a split pays
        sparse.sort(reverse=True)
    diag = [rng.randint(100, 3000) if s else rng.randint(1, 3) for s in sparse]
    h = [[diag[i] if i == j else rng.randrange(diag[i]) * (j < i) for j in range(n)] for i in range(n)]
    bounds = [rng.randint(d, 4 * d) if s else rng.randint(1, 3) for s, d in zip(sparse, diag)]
    return [list(col) for col in zip(*h)], bounds


class TestSplitSearch:
    """lattice_points_in_box where its split falls inside: a walk down the
    first Hermite columns completed by a table of the remaining box."""

    def test_interior_splits_match_hnf_walk(self):
        rng = random.Random(271)
        splits = Counter()
        points = 0
        for _ in range(600):
            n = rng.randint(3, 5)
            rows, bounds = _mixed_hermite(rng, n)
            lat = Lattice(rows if rng.random() < 0.5 else _mixed(rng, rows))
            with mock.patch.object(lattice_module, "_search", wraps=lattice_module._search) as search:
                got = list(lattice_points_in_box(lat, bounds))
            a = search.call_args.args[2]
            assert got == list(reference_lattice_points_in_box(lat, bounds)), (rows, bounds, a)
            splits[0 < a < n] += 1
            points += len(got)
        assert splits[True] > 400 and splits[False] > 100 and points > 200_000

    def test_mixed_lattice(self):
        # sparse on the first two axes and the last, dense on the seven
        # between: the best split walks six coordinates (at most 4 * 13^4
        # leaves) and tables four (13^4 cells); the join's larger half table
        # held 4001^2 * 13 = 208,104,013 labels
        n = 10
        h = [[0] * n for _ in range(n)]
        for i, d in enumerate((3000, 3000) + (1,) * 7 + (4621,)):
            h[i][i] = d
        h[1][0] = 17
        h[9] = [5, 8, 1, 2, 3, 4, 5, 6, 7, 4621]
        lat = Lattice([list(col) for col in zip(*h)])
        assert lat.canonical().entries == tuple(map(tuple, h))
        c = Chair((2001, 2001) + (7,) * 8, (1000, 1000) + (4,) * 8)
        start = time.perf_counter()
        verdict = verify_tiling(lat, c)
        assert time.perf_counter() - start < 1
        assert verdict == Verdict.failed("copies at 0 and witness overlap", (0, 0, -6, -6, -6, -6, -4, 6, 6, -2))
        assert verdict == reference_verify_packing(lat, c)


def _cycle_rows(sides, notch, order):
    """The rows l_j*e_j - k_i*e_i for each step j -> i of the coordinate
    cycle that visits order in turn."""
    n = len(sides)
    rows = []
    for a, j in enumerate(order):
        i = order[(a + 1) % n]
        row = [0] * n
        row[j] += sides[j]
        row[i] -= notch[i]
        rows.append(row)
    return rows


def _random_cycle_rows(rng: random.Random, c: Chair):
    order = [0] + rng.sample(range(1, c.n), c.n - 1)
    rows = _cycle_rows(c.sides, c.notch, order)
    rng.shuffle(rows)
    return rows


def _mixed(rng: random.Random, rows):
    u = random_unimodular(len(rows), rng).entries
    return [[sum(a * r[t] for a, r in zip(urow, rows)) for t in range(len(rows))] for urow in u]


CYCLE_KINDS = ("cycle", "unimodular", "hermite", "rational")


def _cycle_lattice_sweep():
    """1,200 seeded (kind, chair, lattice) with the lattice spanned by a
    random cycle's rows, in that basis, a random unimodular or the Hermite
    basis, and for rational chairs."""
    rng = random.Random(233)
    caps = {1: 20, 2: 12, 3: 6, 4: 4, 5: 3, 6: 3}
    for t in range(1200):
        kind = CYCLE_KINDS[t % len(CYCLE_KINDS)]
        n = rng.randint(1, 6) if kind != "rational" else rng.randint(1, 3)
        c = random_rational_chair(rng, n) if kind == "rational" else random_chair(rng, n, caps[n])
        rows = _random_cycle_rows(rng, c)
        if kind in ("unimodular", "rational"):
            rows = _mixed(rng, rows)
        lat = Lattice(rows)
        if kind == "hermite":
            lat = Lattice(lat.canonical().transpose().entries)
        yield kind, c, lat


class TestChairCycle:
    def test_follows_the_cycle_greedily(self):
        # the lattice of the cycle 0 -> 2 -> 1 -> 0: coordinate 0 tries 1,
        # then 2; coordinate 2 tries 1; the cycle closes from 1 to 0
        c = Chair((5, 4, 3), (3, 3, 1))
        lat = Lattice(_cycle_rows(c.sides, c.notch, [0, 2, 1]))
        asked = []

        def member(v):
            asked.append(tuple(v))
            return lat.member(v)

        assert chair_cycle(c.sides, c.notch, member)
        assert asked == [(5, -3, 0), (5, 0, -1), (0, -3, 3), (-3, 4, 0)]
        assert chair_lattice(c) != lat

    def test_one_and_two_dimensions(self):
        assert chair_cycle((5,), (2,), Lattice([[3]]).member)
        assert not chair_cycle((5,), (2,), Lattice([[6]]).member)
        assert chair_cycle((5,), (2,), Lattice([[1]]).member)  # it is the volume that differs
        c = Chair((3, 4), (2, 1))
        assert chair_cycle(c.sides, c.notch, chair_lattice(c).member)
        assert not chair_cycle(c.sides, c.notch, Lattice([[3, 0], [0, 3]]).member)

    def test_missing_row(self):
        # every row but the one closing the cycle
        c = Chair((5, 4, 3), (3, 3, 1))
        rows = chair_lattice(c).generator_matrix().entries
        lat = Lattice([rows[0], rows[1], [0, 0, 2 * c.sides[2]]])
        assert not chair_cycle(c.sides, c.notch, lat.member)

    def test_cycle_lattices_tile(self, monkeypatch):
        # chair lattices over random coordinate cycles, in random unimodular
        # and Hermite bases and for rational chairs, are decided by the
        # certificate, and the torus oracle and the reference packing search
        # agree with the verdict
        decided = Counter()
        real = lattice_module.chair_cycle

        def counting(sides, notch, member):
            ok = real(sides, notch, member)
            decided[kind] += ok
            return ok

        monkeypatch.setattr(lattice_module, "chair_cycle", counting)
        cases = Counter()
        for kind, c, lat in _cycle_lattice_sweep():
            assert verify_tiling(lat, c) == Verdict.passed(), (kind, c, lat)
            assert reference_verify_packing(lat, c).ok and lat.volume == volume(c)
            if kind != "rational":
                assert torus_tiling_oracle(lat, c).ok, (kind, c, lat)
            cases[kind, c.n] += 1
        assert decided == Counter({kind: 300 for kind in CYCLE_KINDS})
        assert all(cases[kind, n] > 30 for kind in CYCLE_KINDS[:3] for n in range(1, 7))

    def test_box_search_passes_cycle_lattices(self, monkeypatch):
        # with chair_cycle made to fail, the box search alone passes every
        # lattice of the sweep above; each box fits the default budget
        monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
        monkeypatch.setattr(lattice_module, "chair_cycle", lambda sides, notch, member: False)
        passed = Counter()
        for kind, c, lat in _cycle_lattice_sweep():
            assert verify_tiling(lat, c) == Verdict.passed(), (kind, c, lat)
            passed[kind] += 1
        assert passed == Counter({kind: 300 for kind in CYCLE_KINDS})

    def test_superlattices_fail(self):
        # a superlattice of a chair lattice holds the cycle's rows too, but
        # its index is smaller than the chair's volume: it cannot pack, and
        # the search reports the reference's witness
        rng = random.Random(239)
        failed = 0
        for _ in range(400):
            n = rng.randint(1, 5)
            c = random_chair(rng, n, {1: 20, 2: 12, 3: 6, 4: 4, 5: 3}[n])
            s = Lattice(_random_cycle_rows(rng, c)).labeling()
            factors = [j for j, d in enumerate(s.divisors) if d > 1]
            if not factors:
                continue
            j = rng.choice(factors)
            p = min(q for q in range(2, s.divisors[j] + 1) if s.divisors[j] % q == 0)
            divisors = tuple(d // p if t == j else d for t, d in enumerate(s.divisors))
            sup = splitting_to_lattice(SplittingSequence(divisors, s.residues))
            sup = Lattice(_mixed(rng, sup.generator_matrix().entries))
            assert sup.volume * p == volume(c)
            assert chair_cycle(c.sides, c.notch, sup.member)
            verdict = verify_tiling(sup, c)
            assert not verdict.ok and verdict == reference_verify_packing(sup, c), (c, sup)
            failed += 1
        assert failed > 300

    @pytest.mark.parametrize("k", [3, 5])
    def test_other_chair_lattices_past_the_join(self, monkeypatch, k):
        # the 7^n - k^n chair lattice is not the 7^n - 4^n chair's, so only the
        # box search decides it against that chair.  For k = 3 its chair holds
        # the 7/4 chair, which therefore packs, and the volumes differ; for
        # k = 5 the sum of its rows, 2*(1, ..., 1), is the overlap witness.
        # The box search decides both to n = 10; at n = 11 its charge of 13^6
        # entries exceed the default budget and the verdict is BudgetExceeded
        monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
        for n in (4, 10, 11):
            lat, c = chair_lattice(Chair((7,) * n, (k,) * n)), Chair((7,) * n, (4,) * n)
            assert not chair_cycle(c.sides, c.notch, lat.member)
            if n == 11:
                with pytest.raises(BudgetExceeded, match="search needs 4826809 items"):
                    verify_tiling(lat, c)
                continue
            verdict = verify_tiling(lat, c)
            if k == 3:
                assert verdict == Verdict.failed(
                    "volume mismatch", lattice_volume=7**n - 3**n, chair_volume=7**n - 4**n)
            else:
                assert verdict == Verdict.failed("copies at 0 and witness overlap", (-2,) * n)
            if n == 4:
                assert verify_packing(lat, c) == reference_verify_packing(lat, c)

    def test_one_candidate_on_packing_lattices(self):
        # for n >= 3, a lattice that packs the chair holds l_j*e_j - k_i*e_i
        # for at most one i != j; a chair lattice over a cycle holds it for
        # the cycle's next coordinate
        rng = random.Random(241)
        seen = Counter()
        for t in range(900):
            n = rng.randint(3, 6)
            c = random_chair(rng, n, {3: 6, 4: 4, 5: 3, 6: 3}[n])
            order = [0] + rng.sample(range(1, n), n - 1)
            rows = _cycle_rows(c.sides, c.notch, order)
            kind = ("cycle", "sublattice", "perturbed")[t % 3]
            if kind == "sublattice":
                i = rng.randrange(n)
                rows[i] = [x * rng.choice([2, 3]) for x in rows[i]]
            elif kind == "perturbed":
                rows[rng.randrange(n)][rng.randrange(n)] += rng.choice([-1, 1])
            try:
                lat = Lattice(_mixed(rng, rows))
            except SingularMatrix:
                continue
            if not reference_verify_packing(lat, c).ok:
                continue
            for j in range(n):
                hits = [i for i in range(n) if i != j
                        and lat.member([c.sides[j] if u == j else -c.notch[i] if u == i else 0 for u in range(n)])]
                assert len(hits) <= 1, (c, lat, j, hits)
                if kind == "cycle":
                    assert hits == [order[(order.index(j) + 1) % n]]
            seen[kind] += 1
        assert seen["cycle"] == 300 and seen["sublattice"] > 100 and seen["perturbed"] > 20


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
        verdict = torus_tiling_oracle(chair_lattice(c), c)
        assert verdict.ok
        assert ("cells", "9") in verdict.detail
        assert ("copies", "3") in verdict.detail

    def test_cube(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        verdict = torus_tiling_oracle(chair_lattice(c), c)
        assert verdict.ok
        assert ("cells", "343") in verdict.detail
        assert ("copies", "49") in verdict.detail

    def test_non_packing_fails(self):
        c = Chair((2, 2), (1, 1))
        verdict = torus_tiling_oracle(Lattice([[1, 0], [0, 3]]), c)
        assert not verdict.ok
        assert "covered" in verdict.reason

    def test_budget(self, monkeypatch):
        # only the chair's 5^3 - 4^3 = 61 points are charged, not the 61^3 cells
        c = Chair((5, 5, 5), (4, 4, 4))
        monkeypatch.setenv("CHAIRCODES_BUDGET", "60")
        with pytest.raises(BudgetExceeded):
            torus_tiling_oracle(chair_lattice(c), c)
        monkeypatch.setenv("CHAIRCODES_BUDGET", "61")
        assert torus_tiling_oracle(chair_lattice(c), c).ok

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
            tiling = verify_tiling(lat, c)
            torus = torus_tiling_oracle(lat, c)
            assert tiling.ok == torus.ok

    def test_matches_numpy_reference(self, monkeypatch):
        # full Verdict equality, witness and details included, against the
        # int64 cover count on the m^n grid; under a budget the library
        # raises exactly when the chair's volume exceeds it
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
                if lat.volume**n <= (10**5 if n == 4 else 5000):
                    break
            monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
            expected = reference_torus_tiling_oracle(lat, c)
            budget = max(1, volume(c) + rng.choice((-1, 0))) if rng.random() < 0.05 else None
            if budget is not None:
                monkeypatch.setenv("CHAIRCODES_BUDGET", str(budget))
            try:
                got = torus_tiling_oracle(lat, c)
            except BudgetExceeded:
                got = "BudgetExceeded"
            over = budget is not None and volume(c) > budget
            assert got == ("BudgetExceeded" if over else expected), (rows, c.sides, c.notch, budget)
            outcomes[got if over else got.reason or "ok"] += 1
        for kind in ("ok", "torus cell uncovered", "torus cell doubly covered"):
            assert outcomes[kind] >= 50, outcomes
        assert outcomes["BudgetExceeded"] > 0, outcomes


@st.composite
def torus_cases(draw):
    """(lattice, chair, budget): a chair lattice, perhaps with one entry moved
    by one; its own chair, another chair, or its own chair with one side
    stretched past the lattice volume; and no budget or one next to the
    chair's volume."""
    n = draw(st.integers(1, 4))
    top = (9, 6, 3, 2)[n - 1]

    def chair() -> tuple[tuple[int, ...], tuple[int, ...]]:
        sides = draw(st.tuples(*[st.integers(2, top)] * n))
        return sides, draw(st.tuples(*[st.integers(1, l - 1) for l in sides]))

    sides, notch = chair()
    rows = [[int(x) for x in row] for row in chair_lattice(Chair(sides, notch)).generator]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[i][j] += draw(st.sampled_from((0, 0, -1, 1)))
    assume(determinant(IntMatrix(tuple(map(tuple, rows)))) != 0)
    lat = Lattice(rows)
    assume(lat.volume**n <= 60_000)
    kind = draw(st.sampled_from(("own", "other", "long side")))
    if kind == "other":
        sides, notch = chair()
    elif kind == "long side":
        sides = sides[:i] + (sides[i] + lat.volume,) + sides[i + 1:]
    c = Chair(sides, notch)
    budget = draw(st.one_of(st.none(), st.integers(-1, 0).map(lambda k: max(1, volume(c) + k))))
    return lat, c, budget


class TestTorusOracleProperty:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(torus_cases())
    # the first bad cell is an uncovered one before any doubly covered one,
    # and the least doubly covered cell is not the first chair point's
    @example((Lattice([[3, -1, 0], [0, 2, -2], [-2, 0, 3]]), Chair((2, 2, 4), (1, 1, 3)), None))
    @example((Lattice([[2, -2, 0, 0], [0, 3, -1, 0], [-2, 0, 2, -2], [-1, 0, 0, 3]]),
              Chair((3, 2, 2, 2), (1, 1, 1, 1)), None))
    def test_matches_numpy_reference(self, case):
        # full Verdict equality, witness and details included, against the
        # cover count on the m^n grid, or BudgetExceeded exactly when the
        # chair's volume exceeds the budget
        lat, c, budget = case
        with mock.patch.dict(os.environ):
            os.environ.pop("CHAIRCODES_BUDGET", None)
            expected = reference_torus_tiling_oracle(lat, c)
            if budget is not None:
                os.environ["CHAIRCODES_BUDGET"] = str(budget)
            if budget is not None and volume(c) > budget:
                with pytest.raises(BudgetExceeded):
                    torus_tiling_oracle(lat, c)
            else:
                assert torus_tiling_oracle(lat, c) == expected


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


SQUARE = Chair((3, 3), (2, 2))
CUBE = Chair((2, 2, 2), (1, 1, 1))

TYPED_REFUSALS = {
    "verify_packing, 2-D lattice, 3-D chair":
        (lambda: verify_packing(chair_lattice(SQUARE), CUBE), DimensionMismatch, "lattice is 2-dimensional"),
    "torus oracle, 2-D lattice, 3-D chair":
        (lambda: torus_tiling_oracle(chair_lattice(SQUARE), CUBE), DimensionMismatch, "lattice is 2-dimensional"),
    "torus oracle, rational lattice":
        (lambda: torus_tiling_oracle(Lattice([[Fraction(5, 2), 0], [0, 2]]), SQUARE), NonIntegerLattice,
         "needs an integer lattice"),
    "member, 3 coordinates":
        (lambda: chair_lattice(SQUARE).member((1, 2, 3)), DimensionMismatch, "point has 3 coordinates"),
    # diag(5, 1) has the chair's volume, but (0, 0), (0, 1) and (0, 2) share a coset
    "build_coloring, diag(5, 1)":
        (lambda: build_coloring(Lattice([[5, 0], [0, 1]]), SQUARE, 4), NotATiling,
         "the chair's 5 points fall in only 3 cosets"),
    "Lattice, non-square generator":
        (lambda: Lattice([[1, 2]]), NonSquare, "generator matrix must be square"),
    "Lattice, empty generator":
        (lambda: Lattice([]), NonSquare, "generator matrix must be nonempty"),
    "canonical, rational lattice":
        (lambda: Lattice([[Fraction(1, 2), 0], [0, 1]]).canonical(), NonIntegerLattice,
         "lattice has rational basis vectors"),
    "Chair, no dimension":
        (lambda: Chair((), ()), InvalidChair, "chair needs at least one dimension"),
    "int_sides, rational chair":
        (lambda: Chair((Fraction(5, 2), 2), (Fraction(1, 2), 1)).int_sides(), NotDiscrete,
         "chair has non-integer side lengths"),
    "uniform_chair_splitting, ell = 1":
        (lambda: uniform_chair_splitting(3, 1), BadParameters, r"need n >= 2 and ell >= 2, got n=3, ell=1"),
}


@pytest.mark.parametrize("call, error, message", TYPED_REFUSALS.values(), ids=TYPED_REFUSALS.keys())
def test_typed_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()
