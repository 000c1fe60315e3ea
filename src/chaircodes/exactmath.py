"""Exact integer matrix algebra: determinants, normal forms, modular inverses.

Scalars are Python ints throughout, so every result is exact at any size.
Nothing in this module (or in the verifiers built on it) touches a float.
"""

from __future__ import annotations

import math
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

    @classmethod
    def _built(cls, rows: tuple[tuple[int, ...], ...]) -> IntMatrix:
        """The library's own rows, equal-length tuples of ints, taken unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        return m

    def transpose(self) -> IntMatrix:
        return IntMatrix._built(tuple(zip(*self.entries)))  # validated rows transpose to valid rows

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


def _sweep(a: list[list[int]], mirror: list[list[int]] | None, p: int, c: int, targets: range) -> bool:
    """The Euclid step of the Hermite form, the Smith form and the kernel:
    subtract from each vector a[j], j in targets, the floor multiple of a[p]
    that reduces its coordinate c modulo a[p][c], and the same multiple of
    mirror[p] from its mirror.  True when coordinate c is then zero on every
    target."""
    piv = a[p]
    d = piv[c]
    done = True
    for j in targets:
        vec = a[j]
        q = vec[c] // d
        if q:
            a[j] = vec = [x - q * y for x, y in zip(vec, piv)]
            if mirror is not None:
                mirror[j] = [x - q * y for x, y in zip(mirror[j], mirror[p])]
        if vec[c]:
            done = False
    return done


def _echelon(a: list[list[int]], mirror: list[list[int]] | None, rows: int) -> int:
    """Echelon form of the vectors a (each of length rows) by unimodular
    operations mirrored on mirror; returns the rank r, after which a[r:] are
    zero.  Row by row, the entry of least absolute value among the unused
    vectors becomes the pivot, and _sweep repeats until the row is clear."""
    rank = 0
    for r in range(rows):
        while True:
            piv = None
            for j in range(rank, len(a)):
                x = a[j][r]
                if x and (piv is None or abs(x) < best):
                    piv, best = j, abs(x)
            if piv is None:
                break
            if piv != rank:
                a[rank], a[piv] = a[piv], a[rank]
                if mirror is not None:
                    mirror[rank], mirror[piv] = mirror[piv], mirror[rank]
            if _sweep(a, mirror, rank, r, range(rank + 1, len(a))):
                rank += 1
                break
    return rank


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the columns of m.

    Convention: lower triangular, positive diagonal, and in each row the
    entries left of the diagonal reduced into [0, diagonal).  Two matrices
    whose columns span the same lattice yield the identical form, so the
    result is invariant under right multiplication by unimodular matrices.
    """
    if m.rows != m.cols:
        raise NonSquare(f"hermite_normal_form needs a square matrix, got {m.rows}x{m.cols}")
    h = [list(col) for col in zip(*m.entries)]  # h[j] is column j
    n = m.rows
    if _echelon(h, None, n) < n:
        raise SingularMatrix("hermite_normal_form needs det != 0")
    for i in range(n):
        if h[i][i] < 0:
            h[i] = [-x for x in h[i]]
        _sweep(h, None, i, i, range(i))  # reduce row i left of the diagonal
    return IntMatrix._built(tuple(zip(*h)))


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
    bound intermediate growth; an all-zero remaining block proves m singular.
    """
    if m.rows != m.cols:
        raise NonSquare(f"smith_normal_form needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = [list(row) for row in m.entries]
    u = [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]
    v = [row[:] for row in u]  # v[j] is column j
    for k in range(n):
        while True:
            best = None
            for i in range(k, n):
                row = a[i]
                for j in range(k, n):
                    e = row[j]
                    if e != 0 and (best is None or abs(e) < best):
                        best = abs(e)
                        pi, pj = i, j
            if best is None:
                raise SingularMatrix("smith_normal_form needs det != 0")
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                u[k], u[pi] = u[pi], u[k]
            if a[k][pj] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
            # row operations commute with the column swap, so it waits for them
            rows_done = _sweep(a, u, k, pj, range(k + 1, n))
            if pj != k:
                for row in a[k:]:  # rows above k are zero from column k on
                    row[k], row[pj] = row[pj], row[k]
                v[k], v[pj] = v[pj], v[k]
            # the column sweep in place: every quotient comes from row k
            d = a[k][k]
            steps = [(j, q) for j in range(k + 1, n) if (q := a[k][j] // d)]
            for row in a[k:]:
                if x := row[k]:
                    for j, q in steps:
                        row[j] -= q * x
            for j, q in steps:
                v[j] = [x - q * y for x, y in zip(v[j], v[k])]
            if not rows_done or any(a[k][k + 1:]):
                continue
            # row k and column k are clear; enforce d | every remaining entry
            offender = None
            for i in range(k + 1, n):
                if any(x % d for x in a[i][k + 1 :]):
                    offender = i
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
            u[k] = [x + y for x, y in zip(u[k], u[offender])]
    return tuple(IntMatrix._built(tuple(map(tuple, x))) for x in (u, a, zip(*v)))


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Basis (as rows) of the right kernel {v : m @ v = 0} over the integers."""
    a = [list(col) for col in zip(*m.entries)]  # a[j] is column j
    v = [[0] * j + [1] + [0] * (m.cols - j - 1) for j in range(m.cols)]  # v[j] is column j
    rank = _echelon(a, v, m.rows)
    return IntMatrix._built(tuple(map(tuple, v[rank:])))


def labelling_kernel(factors: Sequence[tuple[Sequence[int], int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form (hermite_normal_form's convention), row by row,
    of the lattice of v in Z^n with sum v_i labels_i = 0 modulo d for every
    (labels, d) in factors, which may be empty.  It is cut out one factor at
    a time, in closed form in Z_d (_cyclic_kernel).  Once a basis B of the
    vectors whose labels vanish in the factors before c is known, the next
    kernel is B times the cyclic kernel of the factor-c labels of B's
    columns; both are lower triangular, so the product is too, and reducing
    each entry modulo the diagonal of its row puts it in Hermite form."""
    if not factors:
        return IntMatrix.identity(n).entries
    rows = _cyclic_kernel(*factors[0])
    for labels, d in factors[1:]:
        cut = _cyclic_kernel([sum(map(operator.mul, column, labels)) % d for column in zip(*rows)], d)
        # rows = rows @ cut.  Only a row r of cut with diagonal e > 1 has
        # entries left of it: it adds column r into those columns, then
        # scales column r, whose old value no other row of cut reads
        for r in range(n):
            e = cut[r][r]
            if e > 1:
                for i in range(r):
                    h = cut[r][i]
                    if h:
                        for j in range(r, n):
                            rows[j][i] += h * rows[j][r]
                for j in range(r, n):
                    rows[j][r] *= e
        for i in range(n):
            for j in range(i + 1, n):
                q = rows[j][i] // rows[j][j]
                if q:
                    for r in range(j, n):
                        rows[r][i] -= q * rows[r][j]
    return tuple(map(tuple, rows))


def _cyclic_kernel(labels: Sequence[int], d: int) -> list[list[int]]:
    """The kernel of the labelling of Z^n by labels in Z_d, in Hermite form.
    Let g_i = gcd(d, labels_i, ..., labels_{n-1}), g_n = d, so the labels
    from i on span g_i Z_d.  The kernel vectors that vanish left of i have
    i-th entries in (g_{i+1} / g_i) Z: that is the diagonal.  Column i goes
    on with the unique h_ji in [0, d_j) that keeps its partial sum
    d_i labels_i + ... + h_ji labels_j in g_{j+1} Z_d, one modular solve."""
    n = len(labels)
    rows = [[0] * n for _ in range(n)]
    g = [d] * (n + 1)
    for i in reversed(range(n)):
        g[i] = math.gcd(labels[i], g[i + 1])
    partial = [0] * n  # partial[i]: column i's sum so far
    for j in range(n):
        rows[j][j] = e = g[j + 1] // g[j]
        partial[j] = e * labels[j]
        if e > 1:
            inverse = mod_inverse(labels[j] // g[j], e)
            for i in range(j):
                rows[j][i] = h = -(partial[i] % d // g[j]) * inverse % e
                partial[i] += h * labels[j]
    return rows
