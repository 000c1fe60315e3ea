import dataclasses
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaircodes.chair import Chair, enumerate_points
from chaircodes.codes import (
    ErrorSphere,
    LatticeCode,
    _doubling_plan,
    _Group,
    _index_sublattice_count,
    _invariant_factors,
    _orbit_least,
    _shift,
    decode,
    enumerate_sphere,
    exhaustive_perfect_search,
    nonexistence_divisibility_check,
    perfect_code,
    sphere_size,
)
from chaircodes.errors import BadParameters, BudgetExceeded, DimensionMismatch, NonIntegerLattice, NotPerfect
from chaircodes.exactmath import IntMatrix
from chaircodes.lattice import Lattice, SplittingSequence, chair_lattice, lattice_points_in_box, verify_tiling
from chaircodes.splitting import splitting_to_lattice

from oracles import (
    hnf_candidates,
    reference_column_search,
    reference_hnf_search,
    reference_index_sublattice_count,
    reference_invariant_factors,
    reference_orbit_least,
    reference_perfect_search,
)


class TestSphereSize:
    def test_matches_chair_volume_formula(self):
        for n in range(2, 7):
            for ell in range(1, 5):
                assert sphere_size(n, n - 1, ell) == (ell + 1) ** n - ell**n

    def test_small(self):
        assert sphere_size(4, 2, 1) == 11

    def test_zero_errors(self):
        for n in range(1, 6):
            assert sphere_size(n, 0, 3) == 1

    def test_matches_enumeration(self):
        for n in range(1, 7):
            for ell in range(1, 4):
                for t in range(n + 1):
                    s = ErrorSphere.uniform(n, t, ell)
                    pts = enumerate_sphere(s)
                    assert sphere_size(n, t, ell) == len(pts) == s.size
                    assert pts == sorted(pts)  # the boxes of the raised cells, sorted

    def test_domain(self):
        with pytest.raises(BadParameters):
            sphere_size(3, 4, 1)
        with pytest.raises(BadParameters):
            sphere_size(3, 2, 0)


class TestEnumerateSphere:
    def test_small_cube(self):
        pts = enumerate_sphere(ErrorSphere.uniform(3, 2, 1))
        assert pts == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]

    def test_unrestricted_weight(self):
        pts = enumerate_sphere(ErrorSphere.uniform(2, 2, 2))
        assert pts == sorted(product(range(3), repeat=2))
        assert len(pts) == 9

    def test_per_cell_is_chair(self):
        sphere = ErrorSphere.per_cell((2, 1, 1))
        assert enumerate_sphere(sphere) == enumerate_points(Chair((3, 2, 2), (2, 1, 1)))
        assert sphere.size == 12 - 2

    def test_matches_weight_filter(self):
        # the boxes of at most t raised cells, sorted, against the full box
        # [0, m_i] filtered by the number of nonzero cells
        rng = random.Random(19)
        spheres = [ErrorSphere.uniform(n, t, ell) for n in range(1, 6) for t in range(n + 1) for ell in (1, 2, 3)]
        spheres += [ErrorSphere.per_cell(tuple(rng.randint(1, 4) for _ in range(n)))
                    for n in range(1, 6) for _ in range(20)]
        for s in spheres:
            expected = [p for p in product(*(range(m + 1) for m in s.magnitudes))
                        if sum(map(bool, p)) <= s.t]
            assert enumerate_sphere(s) == expected, s

    def test_one_error_in_five_cells(self):
        # 496 points; a filter of the full box would visit 100^5 cells
        pts = enumerate_sphere(ErrorSphere.uniform(5, 1, 99))
        axes = [tuple(x if j == i else 0 for j in range(5)) for i in range(5) for x in range(1, 100)]
        assert pts == sorted([(0,) * 5] + axes)
        assert len(pts) == 496

    def test_needs_a_cell(self):
        # with no cell, the sphere's size and enumeration would read a
        # magnitude that is not there
        with pytest.raises(BadParameters, match="need n >= 1"):
            ErrorSphere(0, 0, ())

    def test_per_cell_needs_t_n_minus_1(self):
        with pytest.raises(BadParameters):
            ErrorSphere(3, 1, (2, 1, 1))

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("CHAIRCODES_BUDGET", "100")
        with pytest.raises(BudgetExceeded):
            enumerate_sphere(ErrorSphere.uniform(8, 8, 9))

    @pytest.mark.parametrize("args, field", [
        ((3, 2, ("2", 2.5, 2)), "a magnitude"),
        ((3, 2, (2, 2.5, 2)), "a magnitude"),
        ((3.0, 2, (1, 1, 1)), "n"),
        ((3, 1.9, (1, 1, 1)), "t"),
    ])
    def test_non_integers_rejected(self, args, field):
        with pytest.raises(BadParameters, match=f"^{field} must be an integer"):
            ErrorSphere(*args)


class TestPerfectCode:
    def test_cube_code(self):
        code = perfect_code(3, (1, 1, 1))
        assert code.perfect
        assert code.lattice.volume == 7
        assert len(code.decode_table) == 7

    def test_square_code(self):
        code = perfect_code(2, (2, 2))
        assert code.lattice.volume == 5
        assert code.sphere.as_chair() == Chair((3, 3), (2, 2))

    def test_non_integer_magnitude_rejected(self):
        # must be refused, not truncated into the (1, 1, 1) code
        with pytest.raises(BadParameters, match="a magnitude"):
            perfect_code(3, (1.9, 1, 1))

    def test_mixed_magnitudes(self):
        code = perfect_code(2, (1, 2))
        assert code.sphere.as_chair() == Chair((2, 3), (1, 2))
        assert code.lattice.volume == 4

    def test_lattice_tiles_sphere_chair(self):
        for mags in [(1, 1), (2, 2), (1, 2), (1, 1, 1), (2, 1, 1)]:
            code = perfect_code(len(mags), mags)
            assert verify_tiling(code.lattice, code.sphere.as_chair()).ok

    def test_lattice_and_sphere_must_agree_on_n(self):
        code = perfect_code(3, (1, 1, 1))
        message = "generator is 3-dimensional, sphere has n = 2"
        with pytest.raises(BadParameters, match=f"^{message}$"):
            LatticeCode(code.lattice, ErrorSphere.per_cell((1, 1)), True, code.decode_table)
        data = code.to_json_dict()
        data.update(ErrorSphere.per_cell((1, 1)).to_json_dict())
        with pytest.raises(BadParameters, match=f"^{message}$"):
            LatticeCode.from_json_dict(data)

    def test_frozen(self):
        code = perfect_code(3, (1, 1, 1))
        for field in dataclasses.fields(code):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(code, field.name, getattr(code, field.name))

    def test_json_round_trip(self):
        code = perfect_code(3, (1, 1, 1))
        restored = LatticeCode.from_json_dict(code.to_json_dict())
        assert restored.lattice == code.lattice
        assert restored.decode_table == code.decode_table
        assert restored.perfect

    def test_json_marked_perfect_needs_perfect_lattice(self):
        data = perfect_code(3, (1, 1, 1)).to_json_dict()
        data["generator"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        with pytest.raises(BadParameters):
            LatticeCode.from_json_dict(data)

    def test_chair_lattice_fallback(self):
        # every notch side of (3,3,4)/(2,2,3) shares a factor with the volume
        # 24, so general_chair_splitting refuses and the chair lattice serves
        code = perfect_code(3, (2, 2, 3))
        assert code.perfect
        assert code.lattice.generator == chair_lattice(Chair((3, 3, 4), (2, 2, 3))).generator
        assert len(code.decode_table) == code.lattice.volume == 24
        gen = code.lattice.generator
        for coeffs in [(0, 0, 0), (1, -2, 3), (-4, 1, 2)]:
            x = tuple(sum(c * row[i] for c, row in zip(coeffs, gen)) for i in range(3))
            for e in enumerate_sphere(code.sphere):
                assert decode(code, tuple(a + b for a, b in zip(x, e))) == (x, e)

    def test_wraps_alphabet(self):
        # q Z^n lies in the lattice exactly when q is a multiple of the
        # quotient's exponent, its largest elementary divisor
        code = perfect_code(3, (1, 1, 1))  # volume 7, cyclic quotient
        assert code.lattice.wraps(7)
        assert code.lattice.wraps(14)
        assert not code.lattice.wraps(4)
        lat = chair_lattice(Chair((4, 4), (2, 2)))  # Z_2 + Z_6, volume 12
        assert lat.labeling().divisors == (2, 6)
        assert [q for q in range(1, 25) if lat.wraps(q)] == [6, 12, 18, 24]


class _Cell(int):
    """A caller's own integer type."""


CUBE_CODE = perfect_code(3, (1, 1, 1))
NOT_PERFECT = LatticeCode(Lattice([[6, -4], [-4, 6]]), ErrorSphere.uniform(2, 1, 2), perfect=False)
NO_TABLE = LatticeCode(CUBE_CODE.lattice, CUBE_CODE.sphere, True)
RATIONAL = LatticeCode(Lattice([[Fraction(1, 2), 0], [0, 1]]), ErrorSphere.per_cell((1, 1)), True, {})
PARTIAL = LatticeCode(CUBE_CODE.lattice, CUBE_CODE.sphere, True,
                      {label: e for label, e in CUBE_CODE.decode_table.items() if any(e)})
NOT_INT = "a received cell must be an integer, got "
NOT_TABLED = "decode table is only defined for perfect codes"
NOT_INTEGRAL = "coset labels need an integer lattice"
DECODE_REFUSALS = {
    "not perfect": (NOT_PERFECT, (0, 0), NotPerfect, NOT_TABLED),
    "not perfect, bool cell": (NOT_PERFECT, (True, 0), NotPerfect, NOT_TABLED),
    "no table": (NO_TABLE, (0, 0, 0), NotPerfect, NOT_TABLED),
    "bool cell": (CUBE_CODE, (1, True, 0), BadParameters, NOT_INT + "True"),
    "float cell": (CUBE_CODE, (1.0, 0, 0), BadParameters, NOT_INT + "1.0"),
    "str cell": (CUBE_CODE, ("1", 0, 0), BadParameters, NOT_INT + "'1'"),
    "Fraction cell": (CUBE_CODE, (Fraction(1), 0, 0), BadParameters, NOT_INT + "Fraction(1, 1)"),
    "first bad cell": (CUBE_CODE, [0, 2.5, True], BadParameters, NOT_INT + "2.5"),
    "bool cell, wrong length": (CUBE_CODE, (True,), BadParameters, NOT_INT + "True"),
    "rational, bool cell": (RATIONAL, (True, 0), BadParameters, NOT_INT + "True"),
    "rational": (RATIONAL, (1, 0), NonIntegerLattice, NOT_INTEGRAL),
    "rational, wrong length": (RATIONAL, (1, 0, 0), NonIntegerLattice, NOT_INTEGRAL),
    "wrong length": (CUBE_CODE, (1, 0), DimensionMismatch, "point has 2 coordinates, lattice is 3-dimensional"),
    "wrong length, numpy.int64": (CUBE_CODE, tuple(map(np.int64, (1, 0, 0, 0))), DimensionMismatch,
                                  "point has 4 coordinates, lattice is 3-dimensional"),
    "partial table, wrong length": (PARTIAL, (0, 0), DimensionMismatch,
                                    "point has 2 coordinates, lattice is 3-dimensional"),
    "partial table": (PARTIAL, (0, 0, 0), KeyError, "(0,)"),
}


class TestDecode:
    def test_codeword_passes_through(self):
        code = perfect_code(3, (1, 1, 1))
        for row in code.lattice.generator:
            codeword, error = decode(code, row)
            assert codeword == row
            assert error == (0, 0, 0)

    def test_single_lookup(self):
        code = perfect_code(3, (1, 1, 1))
        assert decode(code, (1, 1, 0)) == ((0, 0, 0), (1, 1, 0))

    def test_derived_lookup(self):
        code = perfect_code(3, (1, 1, 1))
        assert decode(code, (2, 1, 4)) == ((2, 0, 3), (0, 1, 1))

    def test_round_trip_all_errors(self):
        rng = random.Random(61)
        for mags in [(1, 1, 1), (2, 2), (1, 2), (2, 1, 1)]:
            code = perfect_code(len(mags), mags)
            errors = enumerate_sphere(code.sphere)
            gen = code.lattice.generator
            for _ in range(25):
                coeffs = [rng.randint(-4, 4) for _ in range(len(mags))]
                x = tuple(sum(c * row[i] for c, row in zip(coeffs, gen)) for i in range(len(mags)))
                for e in errors:
                    received = tuple(a + b for a, b in zip(x, e))
                    assert decode(code, received) == (x, e)

    def test_not_perfect_rejected(self):
        packing_only = Lattice([[6, -4], [-4, 6]])  # packs but does not tile
        code = LatticeCode(packing_only, ErrorSphere.uniform(2, 1, 2), perfect=False)
        with pytest.raises(NotPerfect):
            decode(code, (0, 0))

    def test_matches_table_free_reference(self):
        # the reference decodes with no table: the one sphere error e whose
        # difference with the word is a lattice vector.  Cyclic quotients for
        # n = 2..5, the multi-factor ones Z_2+Z_16, Z_6+Z_18 and Z_2+Z_34,
        # and the chair-lattice fallback (2, 2, 3)
        rng = random.Random(20)
        mags_list = [(1, 1), (2, 3), (1, 1, 1), (2, 2, 3), (1, 2, 3), (3, 2, 1, 1), (2, 2, 2, 2),
                     (1, 2, 1, 2), (2, 3, 2, 3), (1, 1, 1, 1, 1), (1, 2, 1, 2, 1)]
        factors = set()
        for mags in mags_list:
            code = perfect_code(len(mags), mags)
            errors = enumerate_sphere(code.sphere)
            factors.add(len(code.lattice.labeling().divisors))
            for _ in range(60):
                word = [rng.randint(-60, 60) for _ in mags]
                (e,) = [e for e in errors if code.lattice.member([r - x for r, x in zip(word, e)])]
                expected = (tuple(r - x for r, x in zip(word, e)), e)
                for cells in (tuple(word), list(word), (x for x in word),
                              tuple(map(np.int64, word)), tuple(map(_Cell, word))):
                    got = decode(code, cells)
                    assert got == expected
                    assert all(type(part) is tuple for part in got)
                    assert all(type(x) is int for part in got for x in part)
        assert factors == {1, 2}

    @pytest.mark.parametrize("case", DECODE_REFUSALS.keys())
    def test_refusal_order(self, case):
        # the order decode's docstring names, each with its exact type and message
        code, word, exc_type, message = DECODE_REFUSALS[case]
        with pytest.raises(exc_type) as info:
            decode(code, word)
        assert type(info.value) is exc_type
        assert str(info.value) == message


class TestNPlusMinus:
    def test_short_vectors_of_packings(self):
        # a nonzero short lattice vector has more than t positive or more than
        # t negative coordinates
        for mags in [(1, 1, 1), (2, 2), (2, 1, 1)]:
            code = perfect_code(len(mags), mags)
            t = code.sphere.t
            for x in lattice_points_in_box(code.lattice, code.sphere.magnitudes):
                if any(x):
                    n_plus, n_minus = sum(1 for v in x if v > 0), sum(1 for v in x if v < 0)
                    assert n_plus >= t + 1 or n_minus >= t + 1


class TestDivisibilityCheck:
    def test_n4(self):
        verdict = nonexistence_divisibility_check(4, 1)
        assert verdict.status == "NoPerfectCode"
        assert ("candidates", "8,12") in verdict.detail
        assert ("sphere_size", "11") in verdict.detail

    def test_n5(self):
        verdict = nonexistence_divisibility_check(5, 1)
        assert verdict.status == "NoPerfectCode"
        assert ("candidates", "16,32") in verdict.detail
        assert ("sphere_size", "26") in verdict.detail

    def test_magnitude_two_and_up(self):
        for n in range(4, 60):
            for ell in range(2, 30):
                assert nonexistence_divisibility_check(n, ell).status == "NoPerfectCode"

    def test_magnitude_one_up_to_twenty(self):
        for n in range(4, 21):
            assert nonexistence_divisibility_check(n, 1).status == "NoPerfectCode"

    def test_no_candidate_divides_at_magnitude_one(self):
        # s = 2^n - n - 1 divides neither 2^(n-1) nor (n-1) 2^(n-2), so the
        # divisibility path alone decides every ell = 1 case
        for n in range(4, 401):
            verdict = nonexistence_divisibility_check(n, 1)
            assert verdict.status == "NoPerfectCode"
            assert ("path", "divisibility") in verdict.detail, n

    def test_domain(self):
        with pytest.raises(BadParameters):
            nonexistence_divisibility_check(3, 1)


TYPED_REFUSALS = {
    "ErrorSphere, 2 magnitudes for 3 cells":
        (lambda: ErrorSphere(3, 2, (1, 1)), BadParameters, "3 cells but 2 magnitudes"),
    "ErrorSphere, t > n":
        (lambda: ErrorSphere(2, 3, (1, 1)), BadParameters, r"need 0 <= t <= n, got t=3, n=2"),
    "ErrorSphere, magnitude 0":
        (lambda: ErrorSphere(2, 1, (1, 0)), BadParameters, "magnitudes must be >= 1"),
    "as_chair, t = n - 2":
        (lambda: ErrorSphere.uniform(3, 1, 1).as_chair(), BadParameters, "only the t = n-1 sphere is a chair"),
    "perfect_code, n = 1":
        (lambda: perfect_code(1, (1,)), BadParameters, "need n >= 2, got 1"),
    "perfect_code, 2 magnitudes for 3 cells":
        (lambda: perfect_code(3, (1, 1)), BadParameters, "3 cells but 2 magnitudes"),
    "perfect_code, n = 3.0":
        (lambda: perfect_code(3.0, (1, 1, 1)), BadParameters, "n must be an integer, got 3.0"),
    "perfect_code, n = '3'":
        (lambda: perfect_code("3", (1, 1, 1)), BadParameters, "n must be an integer, got '3'"),
    "nonexistence_divisibility_check, ell = 0":
        (lambda: nonexistence_divisibility_check(4, 0), BadParameters, "need ell >= 1, got 0"),
}


@pytest.mark.parametrize("call, error, message", TYPED_REFUSALS.values(), ids=TYPED_REFUSALS.keys())
def test_typed_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestExhaustiveSearch:
    def test_positive_control(self):
        verdict = exhaustive_perfect_search(3, 2, 1)
        assert verdict.status == "Found"
        assert verdict.examined == 57  # 1 + 7 + 49 index-7 sublattices of Z^3
        # exactly the kernels of the two splitting sets {1,2,4} and {3,5,6} mod 7
        assert len(verdict.found) == 2
        chair = Chair((2, 2, 2), (1, 1, 1))
        for h in verdict.found:
            lat = Lattice(h.transpose().entries)
            assert verify_tiling(lat, chair).ok

    def test_trivial_sphere(self):
        verdict = exhaustive_perfect_search(2, 0, 5)
        assert verdict.status == "Found"
        assert verdict.examined == 1
        assert Lattice(verdict.found[0].transpose().entries) == Lattice([[1, 0], [0, 1]])

    def test_four_dimensional_nonexistence(self):
        verdict = exhaustive_perfect_search(4, 2, 1)
        assert verdict.status == "NoPerfectCode"
        assert verdict.examined == 1464
        assert verdict.found == ()

    def test_found_lattices_are_packings(self):
        verdict = exhaustive_perfect_search(2, 1, 1)  # sphere size 3
        chairless_sphere = ErrorSphere.uniform(2, 1, 1)
        pts = enumerate_sphere(chairless_sphere)
        for h in verdict.found:
            lat = Lattice(h.transpose().entries)
            diffs = {tuple(a - b for a, b in zip(p, q)) for p in pts for q in pts if p != q}
            assert not any(lat.member(d) for d in diffs)

    def test_budget(self):
        # the budget covers every candidate, pruned or tested
        for budget in (100, 1463):
            with pytest.raises(BudgetExceeded):
                exhaustive_perfect_search(4, 2, 1, budget=budget)
        assert exhaustive_perfect_search(4, 2, 1, budget=1464).examined == 1464

    def test_needs_a_dimension(self):
        with pytest.raises(BadParameters):
            exhaustive_perfect_search(0, 0, 1)

    @pytest.mark.parametrize("params", [
        (4, 2, 2), (4, 3, 1), (5, 1, 1), (4, 1, 2), (3, 2, 4),  # the benchmark's pins
        (4, 2, 1), (3, 2, 1), (2, 1, 1), (2, 0, 5), (1, 1, 3), (3, 1, 3),
        (2, 2, 3), (2, 2, 5),  # diagonal entries 1 < d_k <= ell: p_k mod d_k matters
    ])
    def test_matches_plain_hnf_loop(self, params):
        # the splitting search runs over labellings; the reference tests every
        # HNF candidate in turn.  Equal verdicts: status, examined, and the
        # found bases in the same order
        assert exhaustive_perfect_search(*params) == reference_hnf_search(*params)

    @pytest.mark.parametrize("params", [
        (5, 3, 1), (5, 2, 1), (5, 2, 2), (4, 2, 3),  # none or a few found
        (4, 4, 1), (3, 3, 2), (3, 3, 1), (2, 2, 5),  # full boxes: many found, many non-cyclic groups
        (2, 2, 19), (2, 1, 999),  # ell well past 4: the multiples are doubled up
    ])
    def test_matches_column_search(self, params):
        # the column search this replaced, on sets the plain loop takes too long for
        verdict = exhaustive_perfect_search(*params, budget=10**8)
        assert verdict == reference_column_search(*params, budget=10**8)

    def test_noncyclic_quotient_found(self):
        # Z^4/L = Z_3 + Z_3 is not cyclic: its HNF diagonal has two entries above 1
        verdict = exhaustive_perfect_search(4, 1, 2)
        diagonals = {tuple(m.entries[i][i] for i in range(4)) for m in verdict.found}
        assert (1, 1, 3, 3) in diagonals

    def test_constructive_nonexistence_5_3_1(self):
        # every index-26 sublattice of Z^5 is ruled out, as divisibility predicts
        verdict = exhaustive_perfect_search(5, 3, 1)
        assert (verdict.status, verdict.examined, verdict.found) == ("NoPerfectCode", 959171, ())
        assert nonexistence_divisibility_check(5, 1).status == "NoPerfectCode"

    def test_constructive_nonexistence_6_4_1(self):
        # 951,372,240 index-57 sublattices of Z^6, all ruled out: 57 = 3 * 19 is
        # squarefree, so Z_57 is the one group to search
        verdict = exhaustive_perfect_search(6, 4, 1, budget=10**9)
        assert (verdict.status, verdict.examined, verdict.found) == ("NoPerfectCode", 951372240, ())
        assert nonexistence_divisibility_check(6, 1).status == "NoPerfectCode"

    def test_one_coordinate_long_sphere(self):
        # the only index-s lattice of Z is sZ, and 0..ell covers Z_s once
        verdict = exhaustive_perfect_search(1, 1, 99999)
        assert (verdict.status, verdict.examined) == ("Found", 1)
        assert verdict.found == (IntMatrix(((100000,),)),)

    @pytest.mark.parametrize("params", [(2, 1, 1), (3, 2, 1), (4, 2, 1), (4, 1, 2), (5, 1, 1)])
    def test_matches_membership_reference(self, params):
        # same status, examined count and found bases as a full Lattice per
        # candidate tested against the sphere's difference set
        assert exhaustive_perfect_search(*params) == reference_perfect_search(*params)


@st.composite
def labellings(draw):
    divs = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    n = draw(st.integers(1, 5))
    rows = tuple(tuple(draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))) for _ in divs)
    return divs, rows


class TestSearchSetup:
    def test_sublattice_count_matches_ordered_factorizations(self):
        # the recursion on the last Hermite diagonal entry against the sum
        # over every ordered factorization of s
        for n in range(1, 9):
            for s in range(1, 400):
                assert _index_sublattice_count(n, s) == reference_index_sublattice_count(n, s), (n, s)

    def test_sublattice_count_in_many_dimensions(self):
        # for s = p^k the count is the Gaussian binomial [n-1+k, n-1]_p, the
        # product over 0 < i < n of (p^(k+i) - 1) / (p^i - 1), and it is
        # multiplicative in s.  576 = 2^6 3^2 has about 193 million ordered
        # factorizations into 25 parts
        def prime_power(n, p, k):
            return math.prod(p ** (k + i) - 1 for i in range(1, n)) // math.prod(p**i - 1 for i in range(1, n))

        for n in range(1, 9):
            assert _index_sublattice_count(n, 2**5) == prime_power(n, 2, 5)
        assert _index_sublattice_count(25, 576) == prime_power(25, 2, 6) * prime_power(25, 3, 2)
        with pytest.raises(BudgetExceeded):
            exhaustive_perfect_search(25, 1, 23)  # s = 576

    def test_sublattice_count_matches_hnf_candidates(self):
        for n in range(1, 5):
            for s in range(1, 13):
                assert _index_sublattice_count(n, s) == len(list(hnf_candidates(n, s))), (n, s)

    def test_invariant_factors_match_filtered_factorizations(self):
        # the chains generated directly, in the order of the ordered
        # factorizations that form a divisor chain
        for n in range(1, 7):
            for s in range(1, 400):
                assert list(_invariant_factors(s, n)) == reference_invariant_factors(s, n), (n, s)


class TestKernelBasis:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(labellings())
    def test_matches_splitting_to_lattice(self, labelling):
        # the search's kernel basis, closed form in Z_d and cut out factor by
        # factor in a product group, against the integer kernel of the residue rows
        divs, rows = labelling
        strides = [math.prod(divs[c + 1:]) for c in range(len(divs))]
        beta = [sum(row[i] % d * stride for row, d, stride in zip(rows, divs, strides))
                for i in range(len(rows[0]))]
        expected = splitting_to_lattice(SplittingSequence(divs, rows)).canonical()
        assert _Group(divs).kernel(beta) == expected.entries


@st.composite
def translations(draw):
    divs = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    order = math.prod(divs)
    members = draw(st.sets(st.integers(0, order - 1)))
    return divs, members, draw(st.integers(0, order - 1)), draw(st.integers(0, 20))


class TestShift:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(translations())
    def test_matches_digitwise_sum(self, translation):
        # a bitmask shifted by the moves of q*x holds each member plus q*x,
        # added digit by digit with no carry between the factors
        divs, members, x, q = translation
        group = _Group(divs)
        strides = [math.prod(divs[c + 1:]) for c in range(len(divs))]

        def add(v):
            return sum((v // stride + q * (x // stride)) % d * stride for d, stride in zip(divs, strides))

        mask = sum(1 << v for v in members)
        assert _shift(mask, group._moves(x, q)) == sum(1 << add(v) for v in members)

    def test_doubling_plan_covers_each_multiple_once(self):
        for ell in range(1, 300):
            span: list[int] = []
            for doubling, q in _doubling_plan(ell):
                span += [a + q for a in span] if doubling else [q]
            assert sorted(span) == list(range(1, ell + 1)), ell
            assert len(_doubling_plan(ell)) < 2 * ell.bit_length()


class TestAutomorphismOrbits:
    @pytest.mark.parametrize("divs", [
        (12,), (36,), (2, 2), (2, 4), (2, 6), (3, 3), (4, 4), (2, 8), (3, 9), (2, 12),
        (4, 8), (2, 2, 2), (2, 2, 4), (2, 2, 6), (6, 6), (2, 2, 12),
    ])
    def test_least_orbit_element(self, divs):
        # the search puts the entry of least orbit first: its orbits, read
        # from the orders modulo bG, must be the orbits of every
        # automorphism, tried one by one
        assert _orbit_least(divs) == reference_orbit_least(divs)
