import random
from itertools import product

import pytest

from chaircodes.chair import Chair, enumerate_points
from chaircodes.codes import (
    AlphabetCode,
    ErrorSphere,
    LatticeCode,
    decode,
    enumerate_sphere,
    exhaustive_perfect_search,
    extract_alphabet_code,
    n_plus_minus,
    nonexistence_divisibility_check,
    perfect_code,
    sphere_size,
)
from chaircodes.errors import BadParameters, BudgetExceeded, NotPerfect
from chaircodes.lattice import Lattice, lattice_points_in_box, verify_tiling

from oracles import reference_perfect_search


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
                    assert sphere_size(n, t, ell) == len(enumerate_sphere(s)) == s.size

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

    def test_per_cell_needs_t_n_minus_1(self):
        with pytest.raises(BadParameters):
            ErrorSphere(3, 1, (2, 1, 1))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_sphere(ErrorSphere.uniform(8, 8, 9), budget=100)


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

    def test_mixed_magnitudes(self):
        code = perfect_code(2, (1, 2))
        assert code.sphere.as_chair() == Chair((2, 3), (1, 2))
        assert code.lattice.volume == 4

    def test_lattice_tiles_sphere_chair(self):
        for mags in [(1, 1), (2, 2), (1, 2), (1, 1, 1), (2, 1, 1)]:
            code = perfect_code(len(mags), mags)
            assert verify_tiling(code.lattice, code.sphere.as_chair()).ok

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

    def test_wraps_alphabet(self):
        code = perfect_code(3, (1, 1, 1))  # volume 7, cyclic quotient
        assert code.wraps_alphabet(7)
        assert code.wraps_alphabet(14)
        assert not code.wraps_alphabet(4)


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


class TestAlphabetExtraction:
    def test_binary_cube(self):
        code = perfect_code(3, (1, 1, 1))
        # (1,1,1) dots to 7 = 0 mod 7, so it joins the origin in the cube
        assert extract_alphabet_code(code, 2).codewords == ((0, 0, 0), (1, 1, 1))

    def test_single_letter(self):
        code = perfect_code(3, (1, 1, 1))
        assert extract_alphabet_code(code, 1).codewords == ((0, 0, 0),)

    def test_diagonal_code(self):
        code = perfect_code(2, (2, 2))
        ac = extract_alphabet_code(code, 5)
        assert ac.codewords == ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4))

    def test_non_confusable_exhaustive(self):
        for mags, sigma in [((1, 1, 1), 4), ((2, 2), 9), ((1, 2), 7)]:
            code = perfect_code(len(mags), mags)
            ac = extract_alphabet_code(code, sigma)
            errors = enumerate_sphere(code.sphere)
            reached = {}
            for c in ac.codewords:
                for e in errors:
                    y = tuple(a + b for a, b in zip(c, e))
                    if all(v < sigma for v in y):
                        assert reached.setdefault(y, c) == c
            assert sigma ** code.sphere.n <= 10**4

    def test_budget(self):
        code = perfect_code(3, (1, 1, 1))
        with pytest.raises(BudgetExceeded):
            extract_alphabet_code(code, 200, budget=10**4)

    def test_confusable_codewords_rejected(self):
        code = LatticeCode(Lattice([[1, 0], [0, 1]]), ErrorSphere.uniform(2, 1, 1), perfect=False)
        with pytest.raises(NotPerfect, match=r"codewords \(0, 0\) and \(0, 1\) are confusable"):
            extract_alphabet_code(code, 2)


class TestNPlusMinus:
    def test_zero(self):
        assert n_plus_minus((0, 0, 0)) == (0, 0)

    def test_mixed(self):
        assert n_plus_minus((1, -1, 1, 0)) == (2, 1)

    def test_proof_pattern(self):
        # two coordinates pushed down by ell+1 = 3 from the all-twos vector
        assert n_plus_minus((-1, -1, 2, 2)) == (2, 2)

    def test_short_vectors_of_packings(self):
        for mags in [(1, 1, 1), (2, 2), (2, 1, 1)]:
            code = perfect_code(len(mags), mags)
            t = code.sphere.t
            for x in lattice_points_in_box(code.lattice, code.sphere.magnitudes):
                if any(x):
                    np_, nm = n_plus_minus(x)
                    assert np_ >= t + 1 or nm >= t + 1


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
        for n in range(4, 12):
            for ell in range(2, 5):
                assert nonexistence_divisibility_check(n, ell).status == "NoPerfectCode"

    def test_magnitude_one_up_to_twenty(self):
        for n in range(4, 21):
            assert nonexistence_divisibility_check(n, 1).status == "NoPerfectCode"

    def test_domain(self):
        with pytest.raises(BadParameters):
            nonexistence_divisibility_check(3, 1)


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
        with pytest.raises(BudgetExceeded):
            exhaustive_perfect_search(4, 2, 1, budget=100)

    @pytest.mark.parametrize("params", [(2, 1, 1), (3, 2, 1), (4, 2, 1), (4, 1, 2), (5, 1, 1)])
    def test_matches_membership_reference(self, params):
        # same status, examined count and found bases as a full Lattice per
        # candidate tested against the sphere's difference set
        assert exhaustive_perfect_search(*params) == reference_perfect_search(*params)


class TestAlphabetCodeType:
    def test_frozen_tuple_of_codewords(self):
        ac = AlphabetCode(2, 2, ((0, 0),))
        assert ac.sigma == 2 and ac.codewords == ((0, 0),)
