import math
import random

import pytest

from chaircodes import exactmath as xm
from chaircodes.errors import NonSquare, NotInvertible, SingularMatrix
from chaircodes.exactmath import IntMatrix
from chaircodes.lattice import Lattice, chair_lattice

from oracles import (
    cofactor_determinant,
    random_chair,
    random_unimodular,
    reference_hermite_normal_form,
    reference_integer_kernel,
    reference_smith_normal_form,
)


class TestModInverse:
    def test_identity(self):
        assert xm.mod_inverse(1, 7) == 1

    def test_small(self):
        assert xm.mod_inverse(2, 5) == 3

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            xm.mod_inverse(3, 6)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            xm.mod_inverse(1, 1)

    def test_exhaustive_small_moduli(self):
        for m in range(2, 1001):
            for a in range(1, m):
                if math.gcd(a, m) == 1:
                    assert a * xm.mod_inverse(a, m) % m == 1


class TestDeterminant:
    def test_identity(self):
        assert xm.determinant(IntMatrix.identity(3)) == 1

    def test_2x2(self):
        assert xm.determinant(IntMatrix(((3, -2), (-2, 3)))) == 5

    def test_3x3(self):
        assert xm.determinant(IntMatrix(((2, -1, 0), (0, 2, -1), (-1, 0, 2)))) == 7

    def test_non_square(self):
        with pytest.raises(NonSquare):
            xm.determinant(IntMatrix(((1, 2, 3), (4, 5, 6))))

    def test_against_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert xm.determinant(IntMatrix(tuple(map(tuple, rows)))) == cofactor_determinant(rows)

    def test_row_swap_flips_sign(self):
        m = IntMatrix(((1, 2, 0), (3, -1, 4), (0, 5, 2)))
        swapped = IntMatrix((m.entries[1], m.entries[0], m.entries[2]))
        assert xm.determinant(swapped) == -xm.determinant(m)

    def test_abs_invariant_under_unimodular(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 4)
            rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
            m = IntMatrix(rows)
            w = random_unimodular(n, rng)
            assert abs(xm.determinant(w @ m)) == abs(xm.determinant(m))
            assert abs(xm.determinant(m @ w)) == abs(xm.determinant(m))


def _nonsingular(rng: random.Random, n: int) -> IntMatrix:
    while True:
        rows = tuple(tuple(rng.randint(-8, 8) for _ in range(n)) for _ in range(n))
        m = IntMatrix(rows)
        if xm.determinant(m) != 0:
            return m


# the dependency shows at the first, a middle and the last pivot
SINGULAR = (
    ((0,),),
    ((1, 1), (1, 1)),
    ((2, 4), (1, 2)),
    ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    ((2, 1, 0, 3), (4, 2, 0, 6), (1, 5, 7, 2), (3, 0, 1, 1)),
)


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = xm.smith_normal_form(IntMatrix.identity(4))
        assert d == IntMatrix.identity(4)

    def test_2x2(self):
        _, d, _ = xm.smith_normal_form(IntMatrix(((3, -2), (-2, 3))))
        assert d.entries == ((1, 0), (0, 5))

    def test_already_diagonal(self):
        _, d, _ = xm.smith_normal_form(IntMatrix(((2, 0), (0, 2))))
        assert d.entries == ((2, 0), (0, 2))

    def test_singular_rejected(self):
        for rows in SINGULAR:
            with pytest.raises(SingularMatrix):
                xm.smith_normal_form(IntMatrix(rows))

    def test_decomposition_properties(self):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 5)
            m = _nonsingular(rng, n)
            u, d, v = xm.smith_normal_form(m)
            assert u @ m @ v == d
            assert abs(xm.determinant(u)) == 1
            assert abs(xm.determinant(v)) == 1
            diag = [d.entries[i][i] for i in range(n)]
            assert all(d.entries[i][j] == 0 for i in range(n) for j in range(n) if i != j)
            assert all(x > 0 for x in diag)
            assert all(diag[i + 1] % diag[i] == 0 for i in range(n - 1))
            assert math.prod(diag) == abs(xm.determinant(m))


class TestHermiteNormalForm:
    def test_identity(self):
        assert xm.hermite_normal_form(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_fixed_form(self):
        h = xm.hermite_normal_form(IntMatrix(((2, -1), (-1, 2))))
        assert h.entries == ((1, 0), (1, 3))

    def test_singular_rejected(self):
        for rows in SINGULAR:
            with pytest.raises(SingularMatrix):
                xm.hermite_normal_form(IntMatrix(rows))

    def test_idempotent_and_canonical(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 5)
            m = _nonsingular(rng, n)
            h = xm.hermite_normal_form(m)
            assert xm.hermite_normal_form(h) == h
            w = random_unimodular(n, rng)
            assert xm.hermite_normal_form(m @ w) == h
            assert abs(xm.determinant(h)) == abs(xm.determinant(m))
            # convention: lower triangular, positive diagonal, reduced rows
            e = h.entries
            assert all(e[i][j] == 0 for i in range(n) for j in range(i + 1, n))
            assert all(e[i][i] > 0 for i in range(n))
            assert all(0 <= e[i][j] < e[i][i] for i in range(n) for j in range(i))


class TestIntegerKernel:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(43)
        for _ in range(80):
            k = rng.randint(1, 3)
            n = rng.randint(k, k + 3)
            m = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k)))
            kernel = xm.integer_kernel(m)
            for row in kernel.entries:
                assert all(sum(a * b for a, b in zip(mrow, row)) == 0 for mrow in m.entries)

    def test_full_rank_square_kernel_empty(self):
        assert xm.integer_kernel(IntMatrix(((2, 1), (1, 1)))).rows == 0

    def test_kernel_contains_expected_relation(self):
        # 1x3 map x + 2y + 4z over Z_7 stacked with its modulus column
        m = IntMatrix(((1, 2, 4, 7),))
        kernel = xm.integer_kernel(m)
        assert kernel.rows == 3
        for row in kernel.entries:
            assert row[0] + 2 * row[1] + 4 * row[2] + 7 * row[3] == 0


class TestIntMatrix:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntMatrix(((1.5, 2), (3, 4)))

    def test_matmul_identity(self):
        m = IntMatrix(((1, 2), (3, 4)))
        assert m @ IntMatrix.identity(2) == m

    def test_transpose_involution(self):
        m = IntMatrix(((1, 2, 3), (4, 5, 6)))
        assert m.transpose().transpose() == m


def _square_inputs(count: int, seed: int) -> list[tuple[tuple[int, ...], ...]]:
    """SINGULAR, then count seeded n x n matrices with n = 1..6: dense ones with
    entries up to +-1000, some with a dependent row, and (perturbed) chair
    generators."""
    rng = random.Random(seed)
    out = list(SINGULAR)
    for _ in range(count):
        n = rng.randint(1, 6)
        if rng.random() < 0.7:
            bound = rng.choice((1, 3, 9, 1000))
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.25:
                i, j, k = (rng.randrange(n) for _ in range(3))
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        else:
            rows = [list(r) for r in chair_lattice(random_chair(rng, n, 9)).generator]
            rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 0, 1))
        out.append(tuple(map(tuple, rows)))
    return out


def _kernel_inputs(count: int, seed: int) -> list[tuple[tuple[int, ...], ...]]:
    """Seeded [residues | diag(divisors)] matrices as splitting_to_lattice
    stacks them: 1-3 factors, n <= 8, random residues or a lattice's labels."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            divisors = [rng.randint(2, 60) for _ in range(rng.randint(1, 3))]
            residues = [[rng.randrange(d) for _ in range(n)] for d in divisors]
        else:
            lat = chair_lattice(random_chair(rng, min(n, 5), 6))
            scale = rng.choice((1, 2, 3))
            s = Lattice([[scale * x for x in r] for r in lat.generator]).labeling()
            divisors, residues = list(s.divisors[-3:]), [list(r) for r in s.residues[-3:]]
            if not divisors:
                continue
        k = len(divisors)
        out.append(tuple(tuple(row) + tuple(d if t == j else 0 for t in range(k))
                         for j, (d, row) in enumerate(zip(divisors, residues))))
    return out


def _outcome(f, rows):
    try:
        return f(IntMatrix(rows))
    except SingularMatrix as exc:
        return "SingularMatrix", str(exc)


class TestReferenceNormalForms:
    """The shared sweep must reproduce the three independent loops exactly."""

    def test_square_inputs_match(self):
        inputs = _square_inputs(3000, 101)
        singular = 0
        for rows in inputs:
            h = _outcome(xm.hermite_normal_form, rows)
            assert h == _outcome(reference_hermite_normal_form, rows), rows
            assert _outcome(xm.smith_normal_form, rows) == _outcome(reference_smith_normal_form, rows), rows
            assert xm.integer_kernel(IntMatrix(rows)) == reference_integer_kernel(IntMatrix(rows)), rows
            singular += isinstance(h, tuple)
        assert 150 < singular < 1500

    def test_kernel_inputs_match(self):
        for rows in _kernel_inputs(600, 103):
            kernel = xm.integer_kernel(IntMatrix(rows))
            assert kernel == reference_integer_kernel(IntMatrix(rows)), rows
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows for v in kernel.entries)

    def test_smith_diagonal_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

        checked = 0
        for rows in _square_inputs(3000, 101)[::10]:
            if xm.determinant(IntMatrix(rows)) == 0:
                continue
            _, d, _ = xm.smith_normal_form(IntMatrix(rows))
            expected = sympy_smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            assert [d.entries[i][i] for i in range(len(rows))] == [
                abs(int(expected[i, i])) for i in range(len(rows))
            ], rows
            checked += 1
        assert checked > 200
