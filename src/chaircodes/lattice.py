"""Integer and rational lattices: volume, membership, quotient labels, and
packing / tiling verification against chair shapes.

A lattice is stored by its generator matrix whose *rows* are the basis
vectors.  The cached canonical form is the Hermite normal form of the
transposed generator (columns as basis), so two generators describe the same
lattice exactly when their canonical forms are equal.  Quotient structure
Z^n / lattice comes from the Smith normal form of the generator, as a
SplittingSequence: the labels of the unit vectors in Z_d1 + ... + Z_dk.
Lattice points in a box are found by a walk down the Hermite basis or, as the
points of label zero, by joining the labels of two half-boxes, whichever is
smaller for the lattice and box at hand.
A rational lattice L is handled through its integer model sL, s being the
least integer with sL inside Z^n.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import exactmath
from .budget import as_int, check_budget
from .chair import Chair, Scalar, as_exact, enumerate_points, shifted_copies_intersect, volume
from .errors import (
    BadModulus,
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
        return tuple([sum(map(operator.mul, p, row)) % d for row, d in self._factors])

    def box_values(self, ranges: Sequence[range], start: int = 0, sign: int = 1) -> list[list[int]]:
        """Per factor, sign * value(x) for every x of product(*ranges) placed
        at coordinates start.., in product order, built one axis at a time."""
        cols = []
        for r, d in self._factors:
            col = [0]
            for b, xs in zip(r[start:], ranges):
                steps = [sign * x * b % d for x in xs]
                col = [(g + t) % d for g in col for t in steps]
            cols.append(col)
        return cols

    def grid_rows(self, ranges: Sequence[range], row: Callable[[list[tuple[int, ...]]], object]) -> list:
        """row(the values of a row's cells) for each row of the grid
        product(*ranges), in order.  Along a row the values are g + x*value(e_n),
        g the value at x = 0, so the rows that share g share one call."""
        firsts = self.box_values(ranges[:-1])
        gs = list(zip(*firsts)) if firsts else [()] * math.prod(map(len, ranges[:-1]))
        steps = [[x * r[-1] for x in ranges[-1]] for r in self.residues]
        rows: dict[tuple[int, ...], object] = {}
        for g in gs:
            if g not in rows:
                values = zip(*[[(a + s) % d for s in st] for a, st, d in zip(g, steps, self.divisors)])
                rows[g] = row(list(values) or [()] * len(ranges[-1]))
        return [rows[g] for g in gs]

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
        self.scale = math.lcm(*(x.denominator for row in gen for x in row))
        self._int_rows = [[int(x * self.scale) for x in row] for row in gen]
        det_scaled = exactmath.determinant(IntMatrix(tuple(map(tuple, self._int_rows))))
        if det_scaled == 0:
            raise SingularMatrix("basis rows are linearly dependent")
        self._det = Fraction(det_scaled, self.scale**n)
        self._canonical: IntMatrix | None = None
        self._snf: tuple[IntMatrix, IntMatrix, IntMatrix] | None = None
        self._quotient: SplittingSequence | None = None
        self._scaled: Lattice | None = None  # integer model of a rational lattice

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
        """The lattice scaled by scale, the least s with sL inside Z^n (itself
        when integral)."""
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
        """Image of p in Z^n / lattice, one residue per nontrivial divisor."""
        if not self.is_integer:
            raise NonIntegerLattice("coset labels need an integer lattice")
        if len(p) != self.n:
            raise DimensionMismatch(f"point has {len(p)} coordinates, lattice is {self.n}-dimensional")
        return self.labeling().value(p)

    def member(self, p: Sequence[Scalar]) -> bool:
        """Whether p is an integer combination of the basis rows: s*p must be
        an integer vector in the kernel of the labelling of the integer model
        s*L, s being the scale."""
        if len(p) != self.n:
            raise DimensionMismatch(f"point has {len(p)} coordinates, lattice is {self.n}-dimensional")
        sp = [as_exact(x) * self.scale for x in p]
        if any(x.denominator != 1 for x in sp):
            return False
        return not any(self.integer_model().labeling().value([x.numerator for x in sp]))

    def wraps(self, q: int) -> bool:
        """Whether q*e_i is a lattice vector for every axis (q Z^n inside the
        lattice), so that coordinates may be taken modulo q."""
        return all(self.member([q if j == i else 0 for j in range(self.n)]) for i in range(self.n))

    def same_lattice(self, other: Lattice) -> bool:
        """Equal lattices have equal scales, hence equal integer models."""
        return (
            self.n == other.n
            and self.scale == other.scale
            and self.integer_model().canonical() == other.integer_model().canonical()
        )

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


def _value_keys(s: SplittingSequence, ranges: Sequence[range], start: int, sign: int) -> list[int]:
    """s.box_values with each point's values as one mixed-radix int."""
    keys = [0] * math.prod(map(len, ranges))
    radix = 1
    for col, d in zip(s.box_values(ranges, start, sign), s.divisors):
        keys = col if radix == 1 else [k + radix * v for k, v in zip(keys, col)]
        radix *= d
    return keys


def _box_point(ranges: Sequence[range], i: int) -> tuple[int, ...]:
    """The i-th point of product(*ranges)."""
    x = []
    for r in reversed(ranges):
        i, j = divmod(i, len(r))
        x.append(r[j])
    return tuple(reversed(x))


def join_size(bounds: Sequence[int]) -> int:
    """Entries in the larger half table of box_join over the box |x_i| <= bounds[i]."""
    return _split([max(2 * b + 1, 0) for b in bounds])[0]


def _split(sizes: list[int]) -> tuple[int, int]:
    """(larger half-box, prefix length) of the most even prefix/suffix split."""
    return min((max(math.prod(sizes[:a]), math.prod(sizes[a:])), a) for a in range(len(sizes) + 1))


def box_join(
    s: SplittingSequence, bounds: Sequence[int], budget: int | None = None
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The points x with |x_i| <= bounds[i] and value(x) = 0, met in the middle.

    The coordinates split into a prefix A and a suffix B whose half-boxes are
    as equal in size as the split allows.  Every x_A is tabled by its value
    and every x_B by its negated value, and x_A + x_B has value 0 exactly
    when the two agree.  Yields each x_A that some x_B completes, with those
    x_B; both come in lexicographic order.  The two tables are the memory,
    and the larger is checked against the budget.
    """
    if len(bounds) != s.n:
        raise DimensionMismatch(f"{len(bounds)} bounds for {s.n} coordinates")
    ranges = [range(-b, b + 1) for b in bounds]
    half, a = _split([len(r) for r in ranges])
    check_budget(half, budget, "lattice box join")
    prefix, suffix = ranges[:a], ranges[a:]
    keys_a = _value_keys(s, prefix, 0, 1)
    keys_b = _value_keys(s, suffix, a, -1)
    completions: dict[int, list[tuple[int, ...]]] = {k: [] for k in set(keys_a).intersection(keys_b)}
    for j in [j for j, k in enumerate(keys_b) if k in completions]:
        completions[keys_b[j]].append(_box_point(suffix, j))
    for i in [i for i, k in enumerate(keys_a) if k in completions]:
        yield _box_point(prefix, i), completions[keys_a[i]]


def _walk_size(h: Sequence[Sequence[int]], bounds: Sequence[int]) -> int:
    """Most nodes _walk visits: below each node of depth i, the coefficient
    of basis column i takes at most 2*bounds[i] // h[i][i] + 1 values."""
    total = level = 1
    for i, b in enumerate(bounds):
        level *= max(2 * b // h[i][i] + 1, 0)
        total += level
    return total


def _walk(h: Sequence[Sequence[int]], bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The points of the lattice spanned by the columns of the lower-triangular
    h in the box |x_i| <= bounds[i], walking down the basis, so only
    coefficient ranges that can stay inside the box are ever visited."""
    n = len(bounds)
    coords = [0] * n

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


def lattice_points_in_box(lat: Lattice, max_abs: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All integer-lattice points x with |x_i| <= max_abs[i], zero included,
    in lexicographic order.

    Two exact searches are sized before either runs.  A walk down the
    lower-triangular Hermite basis visits at most _walk_size nodes, few when
    the lattice is sparse in the box (large Hermite diagonal entries).  The
    lattice is the kernel of its labelling, so box_join on it finds the same
    points with two tables of at most join_size entries, few when the box is
    small however dense the lattice.  The smaller of the two sizes runs and is
    checked against the budget.  Both yield in lexicographic order: the walk
    is lexicographic in the Hermite coefficients, which on a lower-triangular
    basis with positive diagonal order the points as x does.
    """
    bounds = [as_int(b, "a box bound") for b in max_abs]
    if len(bounds) != lat.n:
        raise DimensionMismatch(f"{len(bounds)} bounds for {lat.n} coordinates")
    h = lat.canonical().entries
    nodes = _walk_size(h, bounds)
    if nodes < join_size(bounds):
        check_budget(nodes, None, "lattice box walk")
        return _walk(h, bounds)
    groups = box_join(lat.labeling(), bounds)
    return (xa + xb for xa, xbs in groups for xb in xbs)


def verify_packing(lat: Lattice, c: Chair) -> Verdict:
    """Check that chair copies at lattice points are pairwise disjoint.

    Every nonzero lattice point in the open box (-l_i, l_i) is tested with the
    closed-form intersection criterion; any hit is a counterexample.  The box
    is searched on the integer model sL, whose points x with |x_i| < s*l_i
    are the shifts x/s to test.
    """
    if lat.n != c.n:
        raise DimensionMismatch(f"lattice is {lat.n}-dimensional, chair is {c.n}-dimensional")
    s = lat.scale
    bounds = [math.ceil(s * l) - 1 for l in c.sides]
    for x in lattice_points_in_box(lat.integer_model(), bounds):
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


class PaddedGrid:
    """The grid [0,q)^n as the bits of one int, the first cell in row-major
    order the most significant, so a mask shifted right by a chair point e's
    flat offset moves each cell p to p + e.  An anchor p sees the cells
    p - e.  With wrap, axis i is extended periodically by l_i - 1 cells below
    and every grid cell is an anchor; without, the cells with p_i >= l_i - 1
    are, and there are none when some l_i > q.
    """

    def __init__(self, c: Chair, q: int, wrap: bool, budget: int | None = None):
        sides = c.int_sides()
        self.q = q
        self.pads = [l - 1 if wrap else 0 for l in sides]
        self.dims = [q + pad for pad in self.pads]
        self.strides = [math.prod(self.dims[i + 1:]) for i in range(c.n)]
        self.offsets = [sum(map(operator.mul, e, self.strides)) for e in enumerate_points(c, budget)]
        bits = b"1"
        for d, l in zip(reversed(self.dims), reversed(sides)):
            bits = b"0" * (len(bits) * (l - 1)) + bits * (d - l + 1)
        self.anchors = int(bits or b"0", 2)  # no anchors when the chair does not fit

    def masks(self, grid: bytes, codes: Iterable[int]) -> Iterator[int]:
        """The cells holding each code in a byte per cell of [0,q)^n,
        row-major, once the grid is extended periodically."""
        for stride, pad in zip(reversed(self.strides), reversed(self.pads)):  # stride: later axes, extended
            width, copies = self.q * stride, -(-pad // self.q)
            cut = (copies * self.q - pad) * stride
            grid = b"".join([(grid[i:i + width] * (copies + 1))[cut:] for i in range(0, len(grid), width)])
        for code in codes:
            yield int(grid.translate(b"0" * code + b"1" + b"0" * (255 - code)), 2)

    def reach(self, mask: int) -> int:
        """The cells that see a cell of mask."""
        out = 0
        for off in self.offsets:
            out |= mask >> off
        return out

    def misses(self, masks: Iterable[int], target: int) -> tuple[int, list[int]]:
        """Sum 0/1 masks in a bit-sliced counter, bit j of each cell's count in
        planes[j]; return the anchors whose count is not target, and planes."""
        planes: list[int] = []
        for carry in masks:
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        exact = self.anchors if target < 1 << len(planes) else 0
        for j, plane in enumerate(planes):
            exact &= plane if target >> j & 1 else ~plane
        return self.anchors ^ exact, planes

    def cell(self, mask: int) -> tuple[int, ...]:
        """Grid coordinates of the first cell of a nonzero mask."""
        flat = math.prod(self.dims) - mask.bit_length()
        return tuple(flat // s % d - pad for s, d, pad in zip(self.strides, self.dims, self.pads))


def torus_tiling_oracle(lat: Lattice, c: Chair, m: int | None = None, budget: int | None = None) -> Verdict:
    """Independent tiling check: place chair copies at every lattice point of
    the torus (Z/m)^n and count how often each cell is covered.

    Requires m*e_i to be a lattice member for all i (the default m = lattice
    volume always qualifies); the cell count m^n is capped by the budget.  The
    lattice cells (label 0), shifted by each chair point, are summed in a
    PaddedGrid's bit-sliced counter.
    """
    if lat.n != c.n:
        raise DimensionMismatch(f"lattice is {lat.n}-dimensional, chair is {c.n}-dimensional")
    if not c.is_discrete:
        raise NotDiscrete("torus oracle needs a discrete chair")
    if not lat.is_integer:
        raise NonIntegerLattice("torus oracle needs an integer lattice")
    vol = int(lat.volume)
    m = vol if m is None else as_int(m, "the torus modulus")
    if m < 1:
        raise BadModulus(f"torus modulus must be >= 1, got {m}")
    if not lat.wraps(m):
        raise BadModulus(f"{m}*e_i is not a lattice point for some axis i")
    cells = m**lat.n
    check_budget(cells, budget, "torus grid")
    grid = PaddedGrid(c, m, True, budget)
    rows = lat.labeling().grid_rows([range(m)] * lat.n, lambda gs: bytes(map(operator.not_, map(any, gs))))
    (points,) = grid.masks(b"".join(rows), [1])
    bad, planes = grid.misses((points >> off for off in grid.offsets), 1)
    if bad:
        cell = grid.cell(bad)
        kind = "doubly covered" if any(grid.cell(p & bad) == cell for p in planes if p & bad) else "uncovered"
        return Verdict.failed(f"torus cell {kind}", cell, copies=cells // vol, cells=cells)
    return Verdict.passed(copies=cells // vol, cells=cells)
