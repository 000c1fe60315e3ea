"""Integer and rational lattices: volume, membership, quotient labels, and
packing / tiling verification against chair shapes.

A lattice is stored by its generator matrix whose *rows* are the basis
vectors, with one normal form: the Hermite normal form of the transposed
generator of its integer model (columns as basis), from the rows or a
splitting's labels (splitting_to_lattice).  Its diagonal gives the volume,
its equality the lattice's, and its residues membership.
The Smith normal form is computed only for labels: Z^n / lattice as a
SplittingSequence, the labels of the unit vectors in Z_d1 + ... + Z_dk.
A lattice of index vol(c) that holds the chair's tiling rows along some
cycle of the coordinates is a chair lattice, which tiles the chair
(chair_cycle).  Other lattices are checked by a search of a box on the
Hermite form alone: a walk down its first columns, completed by a table of
the rest of the box keyed by Hermite residue, split where the larger of the
two is least.  The torus oracle, an independent tiling check, reads the
chair points' Hermite residues.
A rational lattice L is handled through its integer model sL, s being the
least integer with sL inside Z^n.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Sequence

from . import exactmath
from .budget import as_int, check_budget
from .chair import Chair, Scalar, as_exact, enumerate_points, shifted_copies_intersect, volume
from .errors import (
    BadParameters,
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
        return cls(True, detail=sorted_detail(detail))

    @classmethod
    def failed(cls, reason: str, witness: tuple | None = None, **detail: object) -> Verdict:
        return cls(False, reason, witness, sorted_detail(detail))

    def to_json_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = _point_json(self.witness)
        if self.detail:
            out["detail"] = {k: v for k, v in self.detail}
        return out


def sorted_detail(detail: dict[str, object]) -> tuple[tuple[str, str], ...]:
    """A verdict's detail: (key, str(value)) pairs in key order."""
    return tuple((k, str(v)) for k, v in sorted(detail.items()))


def _point_json(p: tuple) -> list:
    return [_point_json(x) if isinstance(x, tuple) else str(x) for x in p]


@dataclass(frozen=True)
class SplittingSequence:
    """Labels of the unit vectors e_1..e_n in G = Z_d1 + ... + Z_dk.

    residues[j] holds the labels of e_1..e_n in the factor Z_dj, reduced
    modulo dj; a cyclic group Z_m is the single factor (m,).  A chair splits
    G when its points take pairwise distinct values.  permutation records the
    coordinate order a construction used (identity by default); its length
    is n, so a labelling of the trivial group with no factors must give it.
    """

    divisors: tuple[int, ...]
    residues: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        divisors = tuple(as_int(d, "a divisor") for d in self.divisors)
        for d in divisors:
            if d < 1:
                raise BadParameters(f"modulus must be >= 1, got {d}")
        if len(self.residues) != len(divisors):
            raise BadParameters(f"{len(divisors)} group factors but {len(self.residues)} residue rows")
        residues = tuple(tuple(as_int(b, "a residue") % d for b in row)
                         for row, d in zip(self.residues, divisors))
        default = range(len(residues[0]) if residues else 0)
        perm = tuple(as_int(i, "a permutation entry") for i in self.permutation or default)
        if sorted(perm) != list(range(len(perm))):
            raise BadParameters("permutation must reorder 0..n-1")
        if any(len(row) != len(perm) for row in residues):
            raise BadParameters("every group factor needs one residue per coordinate")
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "permutation", perm)
        # zipped once: value() is the inner loop of splitting verification
        object.__setattr__(self, "_factors", tuple(zip(residues, divisors)))

    @classmethod
    def cyclic(cls, m: int, beta: Sequence[int], permutation: Sequence[int] = ()) -> SplittingSequence:
        """Residues beta_1..beta_n over the cyclic group Z_m."""
        return cls((m,), (tuple(beta),), tuple(permutation))

    @property
    def n(self) -> int:
        return len(self.permutation)

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    def value(self, p: Sequence[int]) -> tuple[int, ...]:
        """Image of p in G: its dot product with each factor's residues."""
        if len(p) != len(self.permutation):
            raise DimensionMismatch(f"point has {len(p)} coordinates, labelling is {self.n}-dimensional")
        return tuple([sum(map(operator.mul, p, row)) % d for row, d in self._factors])

    def box_values(self, ranges: Sequence[range]) -> list[list[int]]:
        """Per factor, value(x) for every x of product(*ranges) placed at
        coordinates 0.., in product order, built one axis at a time."""
        cols = []
        for r, d in self._factors:
            col = [0]
            for b, xs in zip(r, ranges):
                steps = [x * b % d for x in xs]
                col = [(g + t) % d for g in col for t in steps]
            cols.append(col)
        return cols

    def to_json_dict(self) -> dict:
        """The m/beta/permutation form; only a one-factor group has one."""
        if len(self.divisors) > 1:
            raise BadParameters(f"a group with {len(self.divisors)} factors has no m/beta form")
        (beta,) = self.residues or ((0,) * self.n,)
        return {
            "m": str(self.order),
            "beta": [str(b) for b in beta],
            "permutation": list(self.permutation),
        }


class Lattice:
    """Full-rank lattice in R^n given by basis rows (and its Hermite form, if known); immutable."""

    def __init__(self, rows: Sequence[Sequence[Scalar | str]], _hermite: IntMatrix | None = None):
        gen = tuple(tuple(map(as_exact, row)) for row in rows)
        n = len(gen)
        if any(len(r) != n for r in gen):
            raise NonSquare("generator matrix must be square")
        if n == 0:
            raise NonSquare("generator matrix must be nonempty")
        self.generator: tuple[tuple[Scalar, ...], ...] = gen
        self.n = n
        self.scale = math.lcm(*[x.denominator for row in gen for x in row])
        self._matrix = IntMatrix._built(tuple(tuple([int(x * self.scale) for x in row]) for row in gen))
        try:  # the Hermite form of sL, columns as basis; splitting_to_lattice knows it
            self._hermite = _hermite or exactmath.hermite_normal_form(self._matrix.transpose())
        except SingularMatrix:
            raise SingularMatrix("basis rows are linearly dependent") from None
        diagonal = math.prod(row[i] for i, row in enumerate(self._hermite.entries))
        self.volume: Scalar = diagonal if self.scale == 1 else as_exact(Fraction(diagonal, self.scale**n))
        self._quotient: SplittingSequence | None = None

    @property
    def is_integer(self) -> bool:
        return self.scale == 1

    def generator_matrix(self) -> IntMatrix:
        if not self.is_integer:
            raise NonIntegerLattice("lattice has rational basis vectors")
        return self._matrix

    def canonical(self) -> IntMatrix:
        """Canonical form: column-style HNF of the transposed generator, built
        with the lattice."""
        self.generator_matrix()  # refuses a rational lattice
        return self._hermite

    def smith(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        """Smith decomposition U A V = D of the generator A; labeling() caches its labels."""
        return exactmath.smith_normal_form(self.generator_matrix())

    def labeling(self) -> SplittingSequence:
        """Z^n / lattice as labels of the unit vectors: with U A V = D the
        Smith form of the generator A, e_i maps to V[i][j] modulo each
        nontrivial divisor d_j = D[j][j].  Its kernel is the lattice."""
        if self._quotient is None:
            _, d, v = self.smith()
            keep = [j for j in range(self.n) if d.entries[j][j] != 1]
            self._quotient = SplittingSequence(
                tuple(d.entries[j][j] for j in keep),
                tuple(tuple(row[j] for row in v.entries) for j in keep),
                tuple(range(self.n)),
            )
        return self._quotient

    def coset_label(self, p: Sequence[int]) -> tuple[int, ...]:
        """Image of the integer point p in Z^n / lattice, one residue per nontrivial divisor."""
        if not self.is_integer:
            raise NonIntegerLattice("coset labels need an integer lattice")
        if len(p) != self.n:
            raise DimensionMismatch(f"point has {len(p)} coordinates, lattice is {self.n}-dimensional")
        if operator.countOf(map(type, p), int) != len(p):  # a point of plain ints skips as_int
            p = [as_int(x, "a coordinate") for x in p]
        return self.labeling().value(p)

    def member(self, p: Sequence[Scalar]) -> bool:
        """Whether p is an integer combination of the basis rows: s*p must be
        an integer vector whose residue modulo the Hermite form of the integer
        model s*L is zero, s being the scale."""
        if len(p) != self.n:
            raise DimensionMismatch(f"point has {len(p)} coordinates, lattice is {self.n}-dimensional")
        sp = [as_exact(x) * self.scale for x in p]
        if any(x.denominator != 1 for x in sp):
            return False
        return not any(exactmath.hnf_residue(self._hermite.entries, [x.numerator for x in sp]))

    def wraps(self, q: int) -> bool:
        """Whether q*e_i is a lattice vector for every axis (q Z^n inside the
        lattice), so that coordinates may be taken modulo q."""
        return all(self.member([q if j == i else 0 for j in range(self.n)]) for i in range(self.n))

    def __eq__(self, other: object) -> bool:
        """Equal lattices have equal scales, hence equal integer models."""
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.n == other.n and self.scale == other.scale and self._hermite == other._hermite

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Lattice({[list(map(str, row)) for row in self.generator]})"

    def to_json_dict(self) -> dict:
        return {"generator": [[str(x) for x in row] for row in self.generator]}

    @classmethod
    def from_json_dict(cls, data: dict) -> Lattice:
        """Read {"generator": [[...], ...]}; BadParameters for another shape."""
        if isinstance(data, dict) and "generator" not in data:
            raise BadParameters("file has no 'generator' field")
        rows = data["generator"] if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise BadParameters("expected a JSON object whose generator is a list of rows")
        return cls(rows)


def _cycle_row(sides: Sequence[Scalar], notch: Sequence[Scalar], j: int, i: int) -> list[Scalar]:
    """The tiling row l_j*e_j - k_i*e_i of a step j -> i of a coordinate cycle."""
    v: list[Scalar] = [0] * len(sides)
    v[j] += sides[j]
    v[i] -= notch[i]
    return v


def chair_rows(sides: Sequence[Scalar], notch: Sequence[Scalar]) -> list[list[Scalar]]:
    """The chair's tiling basis: row i is l_i*e_i - k_{i+1}*e_{i+1}, indices mod n."""
    return [_cycle_row(sides, notch, i, (i + 1) % len(sides)) for i in range(len(sides))]


def chair_lattice(c: Chair) -> Lattice:
    """Lattice tiling the chair, spanned by chair_rows."""
    return Lattice(chair_rows(c.sides, c.notch))


def _walk(h: Sequence[Sequence[int]], bounds: Sequence[int], depth: int) -> list[tuple[int, ...]]:
    """The points y of the lattice spanned by columns 0..depth-1 of the
    lower-triangular h, whose diagonal is positive, with |y_i| <= bounds[i]
    for i < depth, in the lexicographic order of their coefficients.  Column
    i is the last to touch coordinate i, so the walk fixes the coefficients
    column by column and keeps those that leave y_i inside the box; the
    coordinates from depth on are left where the columns put them."""
    n = len(bounds)
    cols = [[(r, h[r][i]) for r in range(n) if h[r][i]] for i in range(depth)]
    coords = [0] * n
    points: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == depth:
            points.append(tuple(coords))
            return
        d, base = h[i][i], coords[i]
        cmin, cmax = -((bounds[i] + base) // d), (bounds[i] - base) // d
        if cmin > cmax:
            return
        col = cols[i]
        for r, x in col:
            coords[r] += (cmin - 1) * x
        for _ in range(cmin, cmax + 1):
            for r, x in col:
                coords[r] += x
            rec(i + 1)
        for r, x in col:
            coords[r] -= cmax * x

    rec(0)
    return points


def lattice_points_in_box(lat: Lattice, max_abs: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All integer-lattice points x with |x_i| <= max_abs[i], zero included,
    in lexicographic order, from the lower-triangular Hermite basis h alone.

    The coordinates split at some a.  Columns 0..a-1 are the only ones that
    touch coordinates 0..a-1, so _walk down them finds every prefix y of a
    point, at most the product of 2*max_abs[i] // h_ii + 1 over i < a.  The
    rest of the box, z over coordinates a.., is tabled by its residue modulo
    the Hermite block h[a:][a:], which spans the lattice's points that vanish
    on coordinates 0..a-1, so y[:a] + z is a point exactly when z and y[a:]
    share that residue.  The split a minimises the larger of the walk's bound
    and the table's size, and that is checked against the budget: a = n is a
    plain walk, a = 0 a scan of the box.  The walk is lexicographic in its
    coefficients, which on a lower-triangular basis with positive diagonal
    order the prefixes as y[:a] does, and each table entry lists its z in
    product order, so the points come out lexicographic.
    """
    bounds = [as_int(b, "a box bound") for b in max_abs]
    if len(bounds) != lat.n:
        raise DimensionMismatch(f"{len(bounds)} bounds for {lat.n} coordinates")
    return _box_search(lat.canonical().entries, bounds)


def _box_search(h: Sequence[Sequence[int]], bounds: list[int]) -> Iterator[tuple[int, ...]]:
    """lattice_points_in_box on the Hermite basis h: the split and its charge."""
    steps = [max(2 * b // h[i][i] + 1, 0) for i, b in enumerate(bounds)]
    cells = [max(2 * b + 1, 0) for b in bounds]

    def charge(a: int) -> int:
        return max(math.prod(steps[:a]), math.prod(cells[a:]))

    a = min(range(len(h), -1, -1), key=charge)  # a tie goes to the longer walk, which prunes
    check_budget(charge(a), None, "lattice box search")
    return _search(h, bounds, a)


def _search(h: Sequence[Sequence[int]], bounds: Sequence[int], a: int) -> Iterator[tuple[int, ...]]:
    """_box_search with the split a."""
    block = tuple(row[a:] for row in h[a:])
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for z in product(*(range(-b, b + 1) for b in bounds[a:])):
        table.setdefault(exactmath.hnf_residue(block, z), []).append(z)
    for y in _walk(h, bounds, a):
        head = y[:a]
        for z in table.get(exactmath.hnf_residue(block, y[a:]), ()):
            yield head + z


def chair_cycle(sides: Sequence[Scalar], notch: Sequence[Scalar], member: Callable[[list], bool]) -> bool:
    """Whether member holds on the rows l_j*e_j - k_i*e_i along an n-cycle
    j -> i of the coordinates, followed greedily from coordinate 0.

    Those rows are chair_rows with the coordinates relabelled along the
    cycle, so they span a lattice of index vol(c) that tiles the chair
    (arXiv 1204.4204), and a lattice of that index holding them is that
    lattice.  The greedy choice is exact on a lattice that packs the chair:
    two candidates i != i' for one j would put k_i'*e_i' - k_i*e_i in the
    lattice, which for n >= 3 is zero on a third coordinate, and the chair's
    copy there overlaps the one at 0.
    """
    unvisited = list(range(1, len(sides)))
    j = 0
    while unvisited:
        i = next((i for i in unvisited if member(_cycle_row(sides, notch, j, i))), None)
        if i is None:
            return False
        unvisited.remove(i)
        j = i
    return member(_cycle_row(sides, notch, j, 0))


def verify_packing(lat: Lattice, c: Chair) -> Verdict:
    """Check that chair copies at lattice points are pairwise disjoint.

    A lattice of the chair's volume that passes chair_cycle is a chair
    lattice and packs.  Otherwise every nonzero lattice point in the open box
    (-l_i, l_i) is tested with the closed-form intersection criterion; any
    hit is a counterexample.  The box is searched on the integer model sL,
    whose points x with |x_i| < s*l_i are the shifts x/s to test.
    """
    if lat.n != c.n:
        raise DimensionMismatch(f"lattice is {lat.n}-dimensional, chair is {c.n}-dimensional")
    if lat.volume == volume(c) and chair_cycle(c.sides, c.notch, lat.member):
        return Verdict.passed()
    s = lat.scale
    bounds = [math.ceil(s * l) - 1 for l in c.sides]
    for x in _box_search(lat._hermite.entries, bounds):
        if not any(x):
            continue
        shift = x if s == 1 else tuple(as_exact(Fraction(xi, s)) for xi in x)
        if shifted_copies_intersect(c, shift):
            return Verdict.failed("copies at 0 and witness overlap", shift)
    return Verdict.passed()


def verify_tiling(lat: Lattice, c: Chair) -> Verdict:
    """Packing plus an exact volume match, which together are a tiling.

    Packing puts the chair's points in distinct cosets: two points p != q of
    one coset would make x = p - q a lattice vector with |x_i| < l_i whose
    copy of the chair meets the one at 0 in p, and the packing check reports
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


def torus_tiling_oracle(lat: Lattice, c: Chair) -> Verdict:
    """Independent tiling check: place chair copies at every lattice point of
    the torus (Z/m)^n, m the lattice volume, and count how often each cell is
    covered.

    Since mZ^n lies in the lattice, a cell y is covered once for each chair
    point e with y - e in the lattice, so the count is constant on cosets and
    is read off the Hermite residues of the chair points, the only items
    charged to the budget.  A coset's residue r, 0 <= r_i < h_ii, is its
    lexicographically least cell with nonnegative coordinates, and h_ii
    divides m, so r is also its first cell of [0,m)^n: the first bad cell is
    the least residue hit twice or the first residue hit by no chair point,
    whichever comes first.
    """
    if lat.n != c.n:
        raise DimensionMismatch(f"lattice is {lat.n}-dimensional, chair is {c.n}-dimensional")
    if not c.is_discrete:
        raise NotDiscrete("torus oracle needs a discrete chair")
    if not lat.is_integer:
        raise NonIntegerLattice("torus oracle needs an integer lattice")
    m = int(lat.volume)
    cells = m**lat.n
    h = lat.canonical().entries
    hits = Counter(exactmath.hnf_residue(h, e) for e in enumerate_points(c))
    bad = [(r, "doubly covered") for r, k in hits.items() if k > 1]
    for r in product(*(range(h[i][i]) for i in range(lat.n))):
        if r not in hits:
            bad.append((r, "uncovered"))
            break
    if bad:
        cell, kind = min(bad)
        return Verdict.failed(f"torus cell {kind}", cell, copies=cells // m, cells=cells)
    return Verdict.passed(copies=cells // m, cells=cells)
