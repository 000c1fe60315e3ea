import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaircodes.chair import Chair, enumerate_points, volume
from chaircodes.errors import BadParameters, BudgetExceeded, DimensionMismatch, HypothesisViolated, NotDiscrete
from chaircodes.exactmath import IntMatrix, determinant, hnf_residue
from chaircodes import splitting
from chaircodes.lattice import Lattice, SplittingSequence, Verdict, chair_lattice, verify_tiling
from chaircodes.splitting import (
    alpha_unit,
    general_chair_splitting,
    lattice_to_splitting,
    splitting_to_lattice,
    uniform_chair_splitting,
    verify_splitting,
)

from oracles import random_chair, reference_verify_splitting


class TestSplittingSequence:
    def test_cyclic_is_one_factor(self):
        s = SplittingSequence.cyclic(7, (8, -1, 4))
        assert (s.divisors, s.residues, s.permutation) == ((7,), ((1, 6, 4),), (0, 1, 2))
        assert (s.n, s.order) == (3, 7)
        assert s.value((1, 1, 0)) == (0,)

    def test_several_factors(self):
        s = SplittingSequence((2, 6), ((1, 0), (3, 1)))
        assert s.n == 2 and s.order == 12
        assert s.value((1, 1)) == (1, 4)

    @pytest.mark.parametrize("p", [(1,), (1, 0, 0, 5), (), (True, False, False, True)])
    def test_value_refuses_other_lengths(self, p):
        # value((1,)) and value((1, 0, 0, 5)) read as the value of (1, 0, 0)
        s = SplittingSequence.cyclic(19, (1, 7, 11))
        with pytest.raises(DimensionMismatch, match=f"^point has {len(p)} coordinates, labelling is 3-dimensional$"):
            s.value(p)
        assert s.value((1, 0, 0)) == (1,)

    @pytest.mark.parametrize("args", [
        ((0,), ((1, 2),)),
        ((3, 0), ((1, 2), (0, 1))),
        ((3,), ()),
        ((3, 5), ((1, 2), (1,))),
        ((3,), ((1, 2),), (0, 0)),
        ((3,), ((1, 2),), (0, 1, 2)),
    ])
    def test_malformed_rejected(self, args):
        with pytest.raises(BadParameters):
            SplittingSequence(*args)

    @pytest.mark.parametrize("args, field", [
        (((7.9,), ((1, 2, 4),)), "a divisor"),
        (((7,), ((1, 2.6, 4),)), "a residue"),
        (((7,), ((1, "2", 4),)), "a residue"),
    ])
    def test_non_integers_rejected(self, args, field):
        # must be refused, not truncated: (7.9,), ((1, 2.6, 4),) is not Z_7 with beta = (1, 2, 4)
        with pytest.raises(BadParameters, match=f"^{field} must be an integer"):
            SplittingSequence(*args)

    def test_json_is_cyclic_only(self):
        s = SplittingSequence.cyclic(10, (4, 1), (1, 0))
        assert s.to_json_dict() == {"m": "10", "beta": ["4", "1"], "permutation": [1, 0]}
        with pytest.raises(BadParameters):
            SplittingSequence((2, 2), ((1, 0), (0, 1))).to_json_dict()

    def test_trivial_group_json(self):
        s = lattice_to_splitting(Lattice([[1, 0], [0, 1]]))
        assert s.to_json_dict() == {"m": "1", "beta": ["0", "0"], "permutation": [0, 1]}


class TestAlphaUnit:
    def test_small_cube(self):
        a = alpha_unit(3, 2)  # group order 7
        assert a == 2
        assert pow(a, 3, 7) == 1
        assert (1 + a + a * a) % 7 == 0

    def test_square(self):
        assert alpha_unit(2, 2) == 2  # group order 3
        assert pow(2, 2, 3) == 1

    def test_side_three(self):
        a = alpha_unit(2, 3)  # group order 5
        assert a == 4
        assert pow(a, 2, 5) == 1
        assert (1 + a) % 5 == 0

    def test_order_and_power_sum(self):
        for n in range(2, 9):
            for ell in range(2, 9):
                m = ell**n - (ell - 1) ** n
                a = alpha_unit(n, ell)
                assert pow(a, n, m) == 1
                assert all(pow(a, i, m) != 1 for i in range(1, n))
                assert sum(pow(a, i, m) for i in range(n)) % m == 0

    def test_domain(self):
        with pytest.raises(BadParameters):
            alpha_unit(1, 2)


class TestUniformSplitting:
    def test_cube(self):
        s = uniform_chair_splitting(3, 2)
        assert (s.divisors, s.residues) == ((7,), ((1, 2, 4),))
        values = sorted(s.value(p) for p in enumerate_points(Chair((2, 2, 2), (1, 1, 1))))
        assert values == [(v,) for v in range(7)]

    def test_square(self):
        s = uniform_chair_splitting(2, 2)
        assert (s.divisors, s.residues) == ((3,), ((1, 2),))
        pts = enumerate_points(Chair((2, 2), (1, 1)))
        assert [s.value(p) for p in pts] == [(0,), (2,), (1,)]

    def test_side_four(self):
        s = uniform_chair_splitting(2, 4)
        assert (s.divisors, s.residues) == ((7,), ((1, 6),))
        chair = Chair((4, 4), (3, 3))
        assert verify_splitting(chair, s).ok

    def test_verifies_on_grid(self):
        for n in range(2, 6):
            for ell in range(2, 6):
                chair = Chair((ell,) * n, (ell - 1,) * n)
                assert verify_splitting(chair, uniform_chair_splitting(n, ell)).ok


class TestGeneralSplitting:
    def test_square_with_notch_two(self):
        c = Chair((3, 3), (2, 2))
        s = general_chair_splitting(c)
        assert (s.divisors, s.residues) == ((5,), ((1, 4),))
        assert [s.value(p) for p in enumerate_points(c)] == [(0,), (4,), (3,), (1,), (2,)]

    def test_matches_uniform_construction(self):
        for n, ell in [(2, 3), (3, 2), (4, 3)]:
            c = Chair((ell,) * n, (ell - 1,) * n)
            s = general_chair_splitting(c)
            u = uniform_chair_splitting(n, ell)
            assert s.residues == u.residues and s.divisors == u.divisors
            assert verify_splitting(c, s).ok

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolated) as info:
            general_chair_splitting(Chair((4, 3), (2, 2)))
        assert info.value.index == 2

    def test_single_offender_is_permuted_to_front(self):
        c = Chair((3, 4), (1, 2))  # k_2 = 2 shares a factor with volume 10
        s = general_chair_splitting(c)
        assert s.permutation == (1, 0)
        assert s.divisors == (10,)
        assert s.residues == ((4, 1),)
        assert verify_splitting(c, s).ok

    def test_recurrence_identities(self):
        rng = random.Random(47)
        checked = 0
        while checked < 60:
            c = random_chair(rng, rng.randint(2, 5))
            try:
                s = general_chair_splitting(c)
            except HypothesisViolated:
                continue
            checked += 1
            (m,), (beta,) = s.divisors, s.residues
            sides = c.int_sides()
            notch = c.int_notch()
            perm = s.permutation
            bi = [beta[p] for p in perm]
            li = [sides[p] for p in perm]
            ki = [notch[p] for p in perm]
            for i in range(c.n - 1):
                assert li[i] * bi[i] % m == ki[i + 1] * bi[i + 1] % m
            assert ki[0] * bi[0] % m == li[-1] * bi[-1] % m
            lk_dot = sum((l - k) * b for l, k, b in zip(sides, notch, beta))
            assert lk_dot % m == 0
            assert verify_splitting(c, s).ok

    def test_needs_discrete_chair(self):
        with pytest.raises(NotDiscrete):
            general_chair_splitting(Chair(("5/2", 2), (1, 1)))


class TestVerifySplitting:
    def test_collision_witness(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        verdict = verify_splitting(c, SplittingSequence.cyclic(7, (1, 1, 1)))
        assert not verdict.ok
        p, q = verdict.witness
        assert p != q
        assert sum(p) % 7 == sum(q) % 7

    def test_wrong_order_rejected(self):
        c = Chair((2, 2), (1, 1))
        verdict = verify_splitting(c, SplittingSequence.cyclic(4, (1, 2)))
        assert not verdict.ok
        assert "order" in verdict.reason

    def test_rational_chair_not_discrete(self):
        # 9/2 is not a group order; the check must not truncate it to 4
        c = Chair(("5/2", 2), ("1/2", 1))
        for m in (4, 5):
            with pytest.raises(NotDiscrete):
                verify_splitting(c, SplittingSequence.cyclic(m, (1, 1)))

    def test_budget(self, monkeypatch):
        # s has value 0 on the chair's rows and generates Z_m, so its kernel
        # is the chair lattice: no box is searched and nothing is charged
        c = Chair((7,) * 8, (4,) * 8)
        s = general_chair_splitting(c)
        monkeypatch.setenv("CHAIRCODES_BUDGET", str(13**4))
        assert verify_splitting(c, s) == Verdict.passed(values=7**8 - 4**8)
        # a wrong labelling is decided by the scan of all 5,699,265 chair
        # points, which is over budget
        wrong = SplittingSequence.cyclic(s.order, (1,) * 8)
        with pytest.raises(BudgetExceeded):
            verify_splitting(c, wrong)
        monkeypatch.setenv("CHAIRCODES_BUDGET", "1")
        assert verify_splitting(c, s) == Verdict.passed(values=7**8 - 4**8)

    def test_long_side_enumerates(self, monkeypatch):
        # the certificate passes beta = 2 and 1, 600; beta = 3 does not
        # generate Z_999, so the chair's 999 points are labelled one by one,
        # inside a budget of 1,000
        monkeypatch.setenv("CHAIRCODES_BUDGET", "1000")
        c = Chair((1000,), (1,))
        assert verify_splitting(c, SplittingSequence.cyclic(999, (2,))) == Verdict.passed(values=999)
        verdict = verify_splitting(c, SplittingSequence.cyclic(999, (3,)))
        assert verdict.witness == ((0,), (333,))
        c = Chair((600, 2), (599, 1))
        assert verify_splitting(c, SplittingSequence.cyclic(601, (1, 600))).ok

    def test_matches_enumeration_reference(self):
        # full Verdict equality, witness included, with the scan that labels
        # every chair point
        rng = random.Random(211)
        kinds = ("constructed", "round trip", "random beta", "random factors", "wrong order")
        outcomes = Counter()
        for i in range(600):
            kind = kinds[i % len(kinds)]
            n = rng.randint(1, 5)
            g = rng.choice([1, 2, 3]) if kind == "round trip" and n > 1 else 1
            c = random_chair(rng, n, max(2, 6 - n))
            c = Chair(tuple(g * l for l in c.sides), tuple(g * k for k in c.notch))
            vol = int(volume(c))
            if kind == "constructed":
                try:
                    s = general_chair_splitting(c)
                except HypothesisViolated:  # needs two notch sides, so n > 1
                    c, s = Chair((2,) * n, (1,) * n), uniform_chair_splitting(n, 2)
            elif kind == "round trip":
                s = lattice_to_splitting(chair_lattice(c))
            elif kind == "random beta":
                s = SplittingSequence.cyclic(vol, [rng.randrange(vol) for _ in range(n)])
            elif kind == "random factors":
                d = rng.choice([d for d in range(1, vol + 1) if vol % d == 0 and (vol // d) % d == 0])
                s = SplittingSequence((d, vol // d), [[rng.randrange(m) for _ in range(n)] for m in (d, vol // d)])
            else:
                m = rng.choice([vol + 1, 2 * vol] + [vol - 1] * (vol > 1))
                length = max(1, n + rng.choice([-1, 0, 0, 1]))
                s = SplittingSequence.cyclic(m, [rng.randrange(m) for _ in range(length)])
            verdict = verify_splitting(c, s)
            assert verdict == reference_verify_splitting(c, s), (kind, c, s)
            outcomes[kind, verdict.ok, len(s.divisors) > 1] += 1
        assert outcomes["constructed", True, False] == 120
        assert outcomes["round trip", True, True] > 20
        assert outcomes["random beta", False, False] > outcomes["random beta", True, False] > 5
        assert outcomes["random factors", False, True] > 20
        assert outcomes["wrong order", False, False] == 120


    def test_certificate_matches_enumeration_reference(self, monkeypatch):
        # full Verdict equality with the scan on labellings whose kernel is
        # a chair lattice, which chair_cycle decides: round trips, their
        # residues times a unit, constructed splittings, some with their
        # coordinates reordered, and cyclic labellings over a random
        # coordinate cycle whose recorded order is the identity.  The
        # controls keep every row of a cycle in the kernel but do not
        # generate the group: residues times a non-unit, which merge cosets
        # and must fail with the scan's pair
        decided = Counter()
        real = splitting.chair_cycle

        def counting(sides, notch, member):
            ok = real(sides, notch, member)
            decided[kind, permuted] += ok
            return ok

        monkeypatch.setattr(splitting, "chair_cycle", counting)
        outcomes = Counter()
        reordered = 0
        for kind, c, s in _certificate_sweep():
            if kind == "cycle":
                reordered += splitting_to_lattice(s) != chair_lattice(c)
            permuted = s.permutation != tuple(range(c.n))
            verdict = verify_splitting(c, s)
            assert verdict == reference_verify_splitting(c, s), (kind, c, s)
            if kind == "non-unit":
                assert real(c.int_sides(), c.int_notch(), lambda v: not any(s.value(v)))
            outcomes[kind, verdict.ok, len(s.divisors) > 1 or permuted] += 1
        assert sum(decided.values()) > 1500 and decided["constructed", True] > 40
        assert decided["cycle", False] == 600 and reordered > 100
        assert decided["non-unit", False] == decided["non-unit", True] == 0
        assert outcomes["non-unit", True, False] == outcomes["non-unit", True, True] == 0
        assert outcomes["non-unit", False, False] > 250 and outcomes["non-unit", False, True] > 80
        assert outcomes["unit", True, True] > 80 and outcomes["round trip", True, True] > 80
        assert outcomes["constructed", True, True] > 200

    def test_scan_passes_what_the_certificate_passes(self, monkeypatch):
        # with chair_cycle made to fail, the point scan alone passes every
        # labelling of the sweep above that the certificate passes
        real = splitting.chair_cycle
        monkeypatch.setattr(splitting, "chair_cycle", lambda sides, notch, member: False)
        passed = Counter()
        for kind, c, s in _certificate_sweep():
            if splitting._generates(s) and real(c.int_sides(), c.int_notch(), lambda v: not any(s.value(v))):
                assert verify_splitting(c, s) == Verdict.passed(values=int(volume(c))), (kind, c, s)
                passed[kind] += 1
        assert passed == Counter({kind: 600 for kind in ("round trip", "unit", "constructed", "cycle")})

    def test_generates_matches_subgroup_closure(self):
        rng = random.Random(227)
        seen = Counter()
        for _ in range(600):
            divisors = tuple(rng.choice([1, 2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(1, 3)))
            n = rng.randint(1, 3)
            residues = tuple(tuple(rng.randrange(d) for _ in range(n)) for d in divisors)
            s = SplittingSequence(divisors, residues)
            gens = list(zip(*residues))
            reached = {(0,) * len(divisors)}
            frontier = list(reached)
            while frontier:
                g = frontier.pop()
                for e in gens:
                    h = tuple((a + b) % d for a, b, d in zip(g, e, divisors))
                    if h not in reached:
                        reached.add(h)
                        frontier.append(h)
            expected = len(reached) == s.order
            assert splitting._generates(s) == expected, s
            seen[expected, len(divisors)] += 1
        assert all(seen[ok, k] > 10 for ok in (True, False) for k in (2, 3))


class TestSplittingToLattice:
    def test_small_square(self):
        lat = splitting_to_lattice(SplittingSequence.cyclic(3, (1, 2)))
        assert lat.volume == 3
        assert lat == chair_lattice(Chair((2, 2), (1, 1)))

    def test_cube(self):
        lat = splitting_to_lattice(SplittingSequence.cyclic(7, (1, 2, 4)))
        assert lat.volume == 7
        assert verify_tiling(lat, Chair((2, 2, 2), (1, 1, 1))).ok

    def test_trivial_group(self):
        lat = splitting_to_lattice(SplittingSequence.cyclic(1, (0, 0)))
        assert lat.volume == 1
        assert lat == Lattice([[1, 0], [0, 1]])

    def test_image_size_when_no_unit(self):
        # residues 2, 4 modulo 8 only reach the even residues: image size 4
        lat = splitting_to_lattice(SplittingSequence.cyclic(8, (2, 4)))
        assert lat.volume == 4

    def test_kernel_equals_chair_lattice_under_hypothesis(self):
        # with an identity permutation the residue recurrence annihilates every
        # chair-lattice row, so the two constructions give the same lattice;
        # a reordering shifts the equality to the permuted chair
        rng = random.Random(53)
        checked = 0
        while checked < 40:
            c = random_chair(rng, rng.randint(2, 4))
            try:
                s = general_chair_splitting(c)
            except HypothesisViolated:
                continue
            checked += 1
            kernel = splitting_to_lattice(s)
            perm = s.permutation
            if perm == tuple(range(c.n)):
                assert kernel == chair_lattice(c)
            else:
                permuted = Chair(
                    tuple(c.sides[p] for p in perm), tuple(c.notch[p] for p in perm)
                )
                rows = chair_lattice(permuted).generator
                unpermuted = [[0] * c.n for _ in range(c.n)]
                for r in range(c.n):
                    for j in range(c.n):
                        unpermuted[r][perm[j]] = rows[r][j]
                assert kernel == Lattice(unpermuted)
            assert verify_tiling(kernel, c).ok


class TestLatticeToSplitting:
    def test_small_square(self):
        c = Chair((2, 2), (1, 1))
        s = lattice_to_splitting(chair_lattice(c))
        assert s.divisors == (3,)
        assert verify_splitting(c, s).ok

    def test_cube_unit_normalized(self):
        s = lattice_to_splitting(chair_lattice(Chair((2, 2, 2), (1, 1, 1))))
        assert (s.divisors, s.residues) == ((7,), ((1, 2, 4),))

    def test_non_cyclic_quotient(self):
        s = lattice_to_splitting(Lattice([[2, 0], [0, 2]]))
        assert s.divisors == (2, 2)
        assert s.order == 4

    def test_trivial_lattice(self):
        s = lattice_to_splitting(Lattice([[1, 0], [0, 1]]))
        assert s.order == 1


class TestRoundTrips:
    def test_chair_lattices(self):
        rng = random.Random(59)
        for _ in range(60):
            c = random_chair(rng, rng.choice([3, 4, 5]))
            if c.n > 4 or volume(c) > 10**4:
                continue
            lat = chair_lattice(c)
            s = lattice_to_splitting(lat)
            assert splitting_to_lattice(s) == lat
            assert verify_splitting(c, s).ok

    def test_non_cyclic_round_trip(self):
        lat = chair_lattice(Chair((4, 4), (2, 2)))  # quotient Z_2 + Z_6
        s = lattice_to_splitting(lat)
        assert len(s.divisors) == 2
        assert math.prod(s.divisors) == 12
        assert splitting_to_lattice(s) == lat

    def test_diagonal_round_trip(self):
        lat = Lattice([[2, 0], [0, 2]])
        assert splitting_to_lattice(lattice_to_splitting(lat)) == lat

    def test_splitting_round_trip(self):
        for n, ell in [(2, 2), (2, 5), (3, 2), (3, 3), (4, 2)]:
            s = uniform_chair_splitting(n, ell)
            lat = splitting_to_lattice(s)
            s2 = lattice_to_splitting(lat)
            assert splitting_to_lattice(s2) == lat


@st.composite
def integer_lattices(draw):
    # a random basis times k: for k > 1 and n > 1 every invariant factor of
    # the quotient is divisible by k, so it has several cyclic factors
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))
    assume(determinant(IntMatrix(tuple(map(tuple, rows)))) != 0)
    return Lattice([[k * x for x in row] for row in rows])


class TestLabelingOracle:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_labels_agree_with_hnf_residues(self, data):
        lat = data.draw(integer_lattices())
        n = lat.n
        h = lat.canonical().entries
        vec = st.tuples(*[st.integers(-12, 12)] * n)
        p, q, coeffs = data.draw(vec), data.draw(vec), data.draw(vec)
        same = tuple(x + sum(c * row[i] for c, row in zip(coeffs, lat.generator)) for i, x in enumerate(p))
        for other in (q, same):
            assert (lat.coset_label(p) == lat.coset_label(other)) == (hnf_residue(h, p) == hnf_residue(h, other))
        assert lat.coset_label(p) == lat.coset_label(same)
        assert lat.labeling().order == lat.volume
        assert splitting_to_lattice(lattice_to_splitting(lat)) == lat


def _certificate_sweep():
    """3,000 seeded (kind, chair, labelling) whose kernel holds a cycle's
    rows: round trips, their residues times a unit or a non-unit, constructed
    splittings, and cyclic labellings over a random coordinate cycle."""
    rng = random.Random(223)
    for i in range(3000):
        n = rng.randint(2, 6)
        c = random_chair(rng, n, {2: 16, 3: 9, 4: 6, 5: 5, 6: 4}[n])
        s = lattice_to_splitting(chair_lattice(c))
        kind = ("round trip", "unit", "non-unit", "constructed", "cycle")[i % 5]
        factors = [j for j, d in enumerate(s.divisors) if d > 1]
        if kind == "constructed":
            try:
                s = general_chair_splitting(c)
            except HypothesisViolated:
                pass
        elif kind == "cycle":
            s = _cycle_labelling(rng, c) or s
        elif kind != "round trip" and factors:
            j = rng.choice(factors)
            d = s.divisors[j]
            units = [u for u in range(1, d) if math.gcd(u, d) == 1]
            others = [u for u in range(2, d) if math.gcd(u, d) > 1] or [0]
            u = rng.choice(units if kind == "unit" else others)
            residues = [tuple(b * u for b in row) if t == j else row for t, row in enumerate(s.residues)]
            s = SplittingSequence(s.divisors, residues)
        yield kind, c, s


def _cycle_labelling(rng: random.Random, c: Chair) -> SplittingSequence | None:
    """A cyclic labelling over Z_vol with value 0 on l_j*e_j - k_i*e_i along
    a random coordinate cycle j -> i, its recorded order the identity; None
    when two notch sides are not units.  The cycle starts at the one that is
    not, if any, since its inverse is never needed."""
    n, m = c.n, int(volume(c))
    sides, notch = c.int_sides(), c.int_notch()
    offenders = [i for i in range(n) if math.gcd(notch[i], m) != 1]
    if len(offenders) > 1:
        return None
    start = offenders[0] if offenders else rng.randrange(n)
    order = [start] + rng.sample([i for i in range(n) if i != start], n - 1)
    beta = [0] * n
    beta[start] = 1 % m
    for j, i in zip(order, order[1:]):
        beta[i] = sides[j] * beta[j] * pow(notch[i], -1, m) % m
    return SplittingSequence.cyclic(m, beta)
