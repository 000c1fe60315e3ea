"""Exact integer matrix algebra: determinants, normal forms, modular inverses.

Scalars are Python ints throughout, so every result is exact at any size.
Nothing in this module (or in the verifiers built on it) touches a float.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import NonSquare, NotInvertible, SingularMatrix


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular matrix of Python ints."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(operator.index(x) for x in row) for row in self.entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> IntMatrix:
        if not self.entries:
            return self
        return IntMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("matrix product dimension mismatch")
        bt = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            )
        )

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m).  Raises NotInvertible if gcd(a, m) > 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {m}") from None


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise NonSquare(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the columns of m.

    Convention: lower triangular, positive diagonal, and in each row the
    entries left of the diagonal reduced into [0, diagonal).  Two matrices
    whose columns span the same lattice yield the identical form, so the
    result is invariant under right multiplication by unimodular matrices.
    """
    if m.rows != m.cols:
        raise NonSquare(f"hermite_normal_form needs a square matrix, got {m.rows}x{m.cols}")
    if determinant(m) == 0:
        raise SingularMatrix("hermite_normal_form needs det != 0")
    h = [list(col) for col in zip(*m.entries)]  # h[j] is column j
    n = m.rows
    for i in range(n):
        while True:
            piv = None
            for j in range(i, n):
                if h[j][i] != 0 and (piv is None or abs(h[j][i]) < abs(h[piv][i])):
                    piv = j
            if piv != i:
                h[i], h[piv] = h[piv], h[i]
            if h[i][i] < 0:
                h[i] = [-x for x in h[i]]
            done = True
            d = h[i][i]
            col_i = h[i]
            for j in range(i + 1, n):
                q = h[j][i] // d
                if q:
                    h[j] = [x - q * y for x, y in zip(h[j], col_i)]
                if h[j][i] != 0:
                    done = False
            if done:
                break
        d = h[i][i]
        col_i = h[i]
        for j in range(i):
            q = h[j][i] // d
            if q:
                h[j] = [x - q * y for x, y in zip(h[j], col_i)]
    return IntMatrix(tuple(zip(*h)))


def hnf_residue(h: tuple[tuple[int, ...], ...], p: Sequence[int]) -> tuple[int, ...]:
    """Reduce p modulo the lattice spanned by the columns of the lower-triangular
    h (a Hermite normal form, given row-wise).

    The result is the unique r = p mod the lattice with 0 <= r_i < h_ii, so two
    points share a coset exactly when their residues are equal, and p is a
    lattice vector exactly when its residue is zero.
    """
    r = list(p)
    n = len(r)
    for i in range(n):
        c = r[i] // h[i][i]
        if c:
            for k in range(i, n):
                r[k] -= c * h[k][i]
    return tuple(r)


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith decomposition (U, D, V) with U @ m @ V == D.

    D is diagonal with positive entries d_1 | d_2 | ... ; U and V are
    unimodular.  Pivots are chosen by smallest nonzero absolute value to
    bound intermediate growth.
    """
    if m.rows != m.cols:
        raise NonSquare(f"smith_normal_form needs a square matrix, got {m.rows}x{m.cols}")
    if determinant(m) == 0:
        raise SingularMatrix("smith_normal_form needs det != 0")
    n = m.rows
    a = m.to_lists()
    u = IntMatrix.identity(n).to_lists()
    v = [list(col) for col in zip(*IntMatrix.identity(n).entries)]  # v[j] is column j

    def col_op(j: int, k: int, q: int) -> None:
        # column j -= q * column k, mirrored on v
        for r in range(n):
            a[r][j] -= q * a[r][k]
        v[j] = [x - q * y for x, y in zip(v[j], v[k])]

    for k in range(n):
        while True:
            pi = pj = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    e = a[i][j]
                    if e != 0 and (best is None or abs(e) < best):
                        best = abs(e)
                        pi, pj = i, j
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                u[k], u[pi] = u[pi], u[k]
            if pj != k:
                for r in range(n):
                    a[r][k], a[r][pj] = a[r][pj], a[r][k]
                v[k], v[pj] = v[pj], v[k]
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
            d = a[k][k]
            done = True
            for i in range(k + 1, n):
                q = a[i][k] // d
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                if a[i][k] != 0:
                    done = False
            for j in range(k + 1, n):
                q = a[k][j] // d
                if q:
                    col_op(j, k, q)
                if a[k][j] != 0:
                    done = False
            if not done:
                continue
            # row k and column k are clear; enforce d | every remaining entry
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
            u[k] = [x + y for x, y in zip(u[k], u[offender])]
    return IntMatrix(tuple(map(tuple, u))), IntMatrix(tuple(map(tuple, a))), IntMatrix(tuple(zip(*v)))


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Basis (as rows) of the right kernel {v : m @ v = 0} over the integers."""
    k, ncols = m.rows, m.cols
    a = [list(col) for col in zip(*m.entries)]  # column-major copy
    v = [[int(i == j) for i in range(ncols)] for j in range(ncols)]  # v[j] is column j
    rank = 0
    for r in range(k):
        while True:
            piv = None
            for j in range(rank, ncols):
                if a[j][r] != 0 and (piv is None or abs(a[j][r]) < abs(a[piv][r])):
                    piv = j
            if piv is None:
                break
            if piv != rank:
                a[rank], a[piv] = a[piv], a[rank]
                v[rank], v[piv] = v[piv], v[rank]
            d = a[rank][r]
            done = True
            for j in range(rank + 1, ncols):
                q = a[j][r] // d
                if q:
                    a[j] = [x - q * y for x, y in zip(a[j], a[rank])]
                    v[j] = [x - q * y for x, y in zip(v[j], v[rank])]
                if a[j][r] != 0:
                    done = False
            if done:
                rank += 1
                break
    return IntMatrix(tuple(tuple(v[j]) for j in range(rank, ncols)))
