"""Integer and rational lattices: volume, membership, quotient labels, and
packing / tiling verification against chair shapes.

A lattice is stored by its generator matrix whose *rows* are the basis
vectors.  The cached canonical form is the Hermite normal form of the
transposed generator (columns as basis), so two generators describe the same
lattice exactly when their canonical forms are equal.  Quotient structure
Z^n / lattice comes from the Smith normal form of the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import exactmath
from .budget import check_budget
from .chair import Chair, Scalar, as_exact, enumerate_points, shifted_copies_intersect, volume
from .errors import (
    BadModulus,
    BudgetExceeded,
    DimensionMismatch,
    NonIntegerLattice,
    NonSquare,
    NotDiscrete,
    SingularMatrix,
)
from .exactmath import IntMatrix


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification; carries a witness when the check fails."""

    ok: bool
    reason: str = ""
    witness: tuple | None = None
    detail: tuple[tuple[str, str], ...] = ()

    @classmethod
    def passed(cls, **detail: object) -> Verdict:
        return cls(True, detail=tuple((k, str(v)) for k, v in sorted(detail.items())))

    @classmethod
    def failed(cls, reason: str, witness: tuple | None = None, **detail: object) -> Verdict:
        return cls(False, reason, witness, tuple((k, str(v)) for k, v in sorted(detail.items())))

    def to_json_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = _point_json(self.witness)
        if self.detail:
            out["detail"] = {k: v for k, v in self.detail}
        return out


def _point_json(p: tuple) -> list:
    return [_point_json(x) if isinstance(x, tuple) else str(x) for x in p]


class Lattice:
    """Full-rank lattice in R^n given by basis rows; immutable after construction."""

    def __init__(self, rows: Sequence[Sequence[Scalar | str]]):
        gen = tuple(tuple(as_exact(x) for x in row) for row in rows)
        n = len(gen)
        if any(len(r) != n for r in gen):
            raise NonSquare("generator matrix must be square")
        if n == 0:
            raise NonSquare("generator matrix must be nonempty")
        self.generator: tuple[tuple[Scalar, ...], ...] = gen
        self.n = n
        self.scale = self._denominator_lcm()
        self._int_rows = [[int(x * self.scale) for x in row] for row in gen]
        det_scaled = exactmath.determinant(IntMatrix(tuple(map(tuple, self._int_rows))))
        if det_scaled == 0:
            raise SingularMatrix("basis rows are linearly dependent")
        self._det = Fraction(det_scaled, self.scale**n)
        self._canonical: IntMatrix | None = None
        self._snf: tuple[IntMatrix, IntMatrix, IntMatrix] | None = None
        self._label_data: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None = None
        self._scaled: Lattice | None = None  # integer model of a rational lattice

    def _denominator_lcm(self) -> int:
        d = 1
        for row in self.generator:
            for x in row:
                if isinstance(x, Fraction):
                    d = d * x.denominator // math.gcd(d, x.denominator)
        return d

    @property
    def is_integer(self) -> bool:
        return self.scale == 1

    @property
    def volume(self) -> Scalar:
        return as_exact(abs(self._det))

    def generator_matrix(self) -> IntMatrix:
        if not self.is_integer:
            raise NonIntegerLattice("lattice has rational basis vectors")
        return IntMatrix(tuple(map(tuple, self._int_rows)))

    def integer_model(self) -> Lattice:
        """The lattice scaled by the denominator lcm (identity when integral)."""
        if self.is_integer:
            return self
        if self._scaled is None:
            self._scaled = Lattice(self._int_rows)
        return self._scaled

    def canonical(self) -> IntMatrix:
        """Canonical form: column-style HNF of the transposed generator."""
        if self._canonical is None:
            self._canonical = exactmath.hermite_normal_form(self.generator_matrix().transpose())
        return self._canonical

    def smith(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        if self._snf is None:
            self._snf = exactmath.smith_normal_form(self.generator_matrix())
        return self._snf

    @property
    def divisors(self) -> tuple[int, ...]:
        """Elementary divisors of Z^n / lattice, trivial ones included."""
        _, d, _ = self.smith()
        return tuple(d.entries[i][i] for i in range(self.n))

    def _labeling(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        # columns of V restricted to nontrivial divisors, plus those divisors
        if self._label_data is None:
            _, d, v = self.smith()
            keep = [j for j in range(self.n) if d.entries[j][j] != 1]
            cols = tuple(tuple(v.entries[i][j] for j in keep) for i in range(self.n))
            divs = tuple(d.entries[j][j] for j in keep)
            self._label_data = (cols, divs)
        return self._label_data

    def coset_label(self, p: Sequence[int]) -> tuple[int, ...]:
        """Image of p in Z^n / lattice, one residue per nontrivial divisor."""
        if not self.is_integer:
            raise NonIntegerLattice("coset labels need an integer lattice")
        if len(p) != self.n:
            raise DimensionMismatch(f"point has {len(p)} coordinates, lattice is {self.n}-dimensional")
        cols, divs = self._labeling()
        acc = [0] * len(divs)
        for x, row in zip(p, cols):
            if x:
                for j, c in enumerate(row):
                    acc[j] += x * c
        return tuple(a % m for a, m in zip(acc, divs))

    def member(self, p: Sequence[Scalar]) -> bool:
        """Whether p is an integer combination of the basis rows: s*p must be
        an integer vector whose residue modulo the HNF of the integer model s*L
        is zero, s being the denominator lcm."""
        if len(p) != self.n:
            raise DimensionMismatch(f"point has {len(p)} coordinates, lattice is {self.n}-dimensional")
        sp = [x * self.scale for x in p]
        if any(x.denominator != 1 for x in sp):
            return False
        h = self.integer_model().canonical().entries
        return not any(exactmath.hnf_residue(h, [int(x) for x in sp]))

    def wraps(self, q: int) -> bool:
        """Whether q*e_i is a lattice vector for every axis (q Z^n inside the
        lattice), so that coordinates may be taken modulo q."""
        return all(self.member([q if j == i else 0 for j in range(self.n)]) for i in range(self.n))

    def same_lattice(self, other: Lattice) -> bool:
        if self.n != other.n:
            return False
        if self.is_integer and other.is_integer:
            return self.canonical() == other.canonical()
        s = self.scale * other.scale // math.gcd(self.scale, other.scale)
        a = Lattice([[x * s for x in row] for row in self.generator])
        b = Lattice([[x * s for x in row] for row in other.generator])
        return a.canonical() == b.canonical()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.same_lattice(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Lattice({[list(map(str, row)) for row in self.generator]})"

    def to_json_dict(self) -> dict:
        return {"generator": [[str(x) for x in row] for row in self.generator]}

    @classmethod
    def from_json_dict(cls, data: dict) -> Lattice:
        return cls(data["generator"])


def chair_lattice(c: Chair) -> Lattice:
    """Lattice tiling the chair: sides on the diagonal, negated notch sides on
    the superdiagonal, and the first notch side negated in the corner."""
    n = c.n
    rows = [[as_exact(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rows[i][i] + c.sides[i]
        j = (i + 1) % n
        rows[i][j] = rows[i][j] - c.notch[j]
    return Lattice(rows)


def lattice_points_in_box(lat: Lattice, max_abs: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All integer-lattice points x with |x_i| <= max_abs[i], zero included.

    Works down the lower-triangular canonical basis, so only coefficient
    ranges that can stay inside the box are ever visited.
    """
    h = lat.canonical().entries  # lower triangular, columns are basis vectors
    n = lat.n
    coords = [0] * n
    bounds = [int(b) for b in max_abs]

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(coords)
            return
        d = h[i][i]
        base = coords[i]
        cmin = -((bounds[i] + base) // d)
        cmax = (bounds[i] - base) // d
        if cmin > cmax:
            return
        col = [h[r][i] for r in range(i, n)]
        if cmin:
            for r in range(i, n):
                coords[r] += cmin * col[r - i]
        c = cmin
        while True:
            yield from rec(i + 1)
            if c == cmax:
                break
            c += 1
            for r in range(i, n):
                coords[r] += col[r - i]
        for r in range(i, n):
            coords[r] -= cmax * col[r - i]

    return rec(0)


def _scaled_pair(lat: Lattice, c: Chair) -> tuple[Lattice, Chair, int]:
    """Common-denominator integer model of a (lattice, chair) pair."""
    s = lat.scale
    d = c.denominator_lcm()
    s = s * d // math.gcd(s, d)
    if s == 1:
        return lat, c, 1
    return Lattice([[x * s for x in row] for row in lat.generator]), c.scaled(s), s


def verify_packing(lat: Lattice, c: Chair) -> Verdict:
    """Check that chair copies at lattice points are pairwise disjoint.

    Every nonzero lattice point in the open box (-l_i, l_i) is tested with the
    closed-form intersection criterion; any hit is a counterexample.  Rational
    inputs are verified on the denominator-cleared integer model.
    """
    if lat.n != c.n:
        raise DimensionMismatch(f"lattice is {lat.n}-dimensional, chair is {c.n}-dimensional")
    ilat, ic, s = _scaled_pair(lat, c)
    bounds = [l - 1 for l in ic.int_sides()]
    for x in lattice_points_in_box(ilat, bounds):
        if any(x) and shifted_copies_intersect(ic, x):
            witness = tuple(as_exact(Fraction(xi, s)) for xi in x)
            return Verdict.failed("copies at 0 and witness overlap", witness)
    return Verdict.passed()


def verify_tiling(lat: Lattice, c: Chair) -> Verdict:
    """Packing plus an exact volume match, which together are a tiling.

    Packing puts the chair's points in distinct cosets: two points p != q of
    one coset would make x = p - q a lattice vector with |x_i| < l_i whose
    copy of the chair meets the one at 0 in p, and the packing walk reports
    every such x.  With the lattice's index equal to the chair's volume those
    distinct cosets are all of them, so the copies cover space exactly once.
    Integer and rational inputs follow the same rule.
    """
    packing = verify_packing(lat, c)
    if not packing.ok:
        return packing
    if lat.volume != volume(c):
        return Verdict.failed("volume mismatch", lattice_volume=lat.volume, chair_volume=volume(c))
    return Verdict.passed()


def torus_tiling_oracle(lat: Lattice, c: Chair, m: int | None = None, budget: int | None = None) -> Verdict:
    """Independent tiling check: place chair copies at every lattice point of
    the torus (Z/m)^n and count how often each cell is covered.

    Requires m*e_i to be a lattice member for all i (the default m = lattice
    volume always qualifies).  Exact 64-bit integer grid arithmetic; the cell
    count m^n is capped by the budget.
    """
    if lat.n != c.n:
        raise DimensionMismatch(f"lattice is {lat.n}-dimensional, chair is {c.n}-dimensional")
    if not c.is_discrete:
        raise NotDiscrete("torus oracle needs a discrete chair")
    if not lat.is_integer:
        raise NonIntegerLattice("torus oracle needs an integer lattice")
    vol = int(lat.volume)
    m = vol if m is None else int(m)
    if m < 1:
        raise BadModulus(f"torus modulus must be >= 1, got {m}")
    if not lat.wraps(m):
        raise BadModulus(f"{m}*e_i is not a lattice point for some axis i")
    n = lat.n
    h = lat.canonical().entries
    cells = m**n
    check_budget(cells, budget, "torus grid")
    if m > 2**25 or cells >= 2**62:
        # every int64 intermediate stays below 2**62 only within these bounds
        raise BudgetExceeded(f"torus grid with m={m} exceeds exact int64 indexing")

    ranges = [m // h[i][i] for i in range(n)]
    basis = np.array(h, dtype=np.int64)  # rows of h, columns are basis vectors
    grids = np.meshgrid(*[np.arange(r, dtype=np.int64) for r in ranges], indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)  # (copies, n)
    anchors = (coeffs @ basis.T) % m
    chair_pts = np.array(enumerate_points(c, budget), dtype=np.int64) % m
    strides = np.array([m ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    flat = ((anchors[:, None, :] + chair_pts[None, :, :]) % m) @ strides
    counts = np.bincount(flat.ravel(), minlength=cells)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        idx = int(bad[0])
        cell = []
        for i in range(n):
            cell.append(idx // int(strides[i]))
            idx %= int(strides[i])
        kind = "doubly covered" if counts[bad[0]] > 1 else "uncovered"
        return Verdict.failed(f"torus cell {kind}", tuple(cell), copies=len(coeffs), cells=cells)
    return Verdict.passed(copies=len(coeffs), cells=cells)
