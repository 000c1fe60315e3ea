"""Asymmetric limited-magnitude error codes built on chair tilings.

An error raises up to t of the n cells, each by at most its magnitude bound.
A lattice whose translates of that error sphere are disjoint is a lattice
code; when they cover Z^n exactly once the code is perfect and every syndrome
(coset label) pins down a unique error.  The t = n-1 sphere is itself a
chair, which is where the tiling constructions come in.  This module also
carries the nonexistence machinery for t = n-2: the divisibility test and an
exhaustive search over all sublattices of the right index, run as a search
for splittings of their quotient groups by the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations, permutations, product
from operator import countOf, mod, mul, sub
from typing import Iterator, Sequence

from .budget import as_int, check_budget, parse_int
from .chair import Chair
from .errors import BadParameters, HypothesisViolated, NotPerfect
from .exactmath import IntMatrix, labelling_kernel
from .lattice import Lattice, chair_lattice, sorted_detail
from .splitting import general_chair_splitting, splitting_to_lattice


def sphere_size(n: int, t: int, ell: int) -> int:
    """Number of error vectors: sum over i <= t of C(n, i) * ell^i."""
    n, t, ell = as_int(n, "n"), as_int(t, "t"), as_int(ell, "ell")
    if not 0 <= t <= n:
        raise BadParameters(f"need 0 <= t <= n, got t={t}, n={n}")
    if ell < 1:
        raise BadParameters(f"need ell >= 1, got {ell}")
    return sum(math.comb(n, i) * ell**i for i in range(t + 1))


@dataclass(frozen=True)
class ErrorSphere:
    """Errors raising at most t of n cells, cell i by at most magnitudes[i]."""

    n: int
    t: int
    magnitudes: tuple[int, ...]

    def __post_init__(self) -> None:
        n, t = as_int(self.n, "n"), as_int(self.t, "t")
        mags = tuple(as_int(x, "a magnitude") for x in self.magnitudes)
        if len(mags) != n:
            raise BadParameters(f"{n} cells but {len(mags)} magnitudes")
        if n < 1:
            raise BadParameters(f"need n >= 1, got {n}")
        if not 0 <= t <= n:
            raise BadParameters(f"need 0 <= t <= n, got t={t}, n={n}")
        if any(m < 1 for m in mags):
            raise BadParameters("magnitudes must be >= 1")
        if len(set(mags)) > 1 and t != n - 1:
            raise BadParameters("per-cell magnitudes are only supported for t = n-1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "magnitudes", mags)

    @classmethod
    def uniform(cls, n: int, t: int, ell: int) -> ErrorSphere:
        return cls(n, t, (ell,) * as_int(n, "n"))

    @classmethod
    def per_cell(cls, magnitudes: Sequence[int]) -> ErrorSphere:
        mags = tuple(magnitudes)
        return cls(len(mags), len(mags) - 1, mags)

    @property
    def size(self) -> int:
        if self.t == self.n - 1:
            return math.prod(m + 1 for m in self.magnitudes) - math.prod(self.magnitudes)
        return sphere_size(self.n, self.t, self.magnitudes[0])

    def as_chair(self) -> Chair:
        """The t = n-1 sphere is exactly a chair with sides m_i + 1, notch m_i."""
        if self.t != self.n - 1:
            raise BadParameters("only the t = n-1 sphere is a chair")
        return Chair(tuple(m + 1 for m in self.magnitudes), self.magnitudes)

    def to_json_dict(self) -> dict:
        return {"n": str(self.n), "t": str(self.t),
                "magnitudes": [str(m) for m in self.magnitudes]}


def enumerate_sphere(s: ErrorSphere) -> list[tuple[int, ...]]:
    """All error vectors of the sphere in lexicographic order: for each set
    of at most t raised cells, the box of their levels 1..m_i."""
    check_budget(s.size, None, "sphere enumeration")
    return sorted(chain.from_iterable(
        product(*[range(1, m + 1) if i in cells else (0,) for i, m in enumerate(s.magnitudes)])
        for w in range(s.t + 1) for cells in combinations(range(s.n), w)))


@dataclass(frozen=True, eq=False)
class LatticeCode:
    """A lattice packing of the error sphere, with a syndrome table when perfect.

    The code is the extension of a linear code over Z_q exactly when the
    lattice absorbs q along every axis (Lattice.wraps).  Frozen: it keeps for decode its labelling's
    (residues, divisor) pairs, None if rational, and its table keyed by _Group's label numbers.
    """

    lattice: Lattice
    sphere: ErrorSphere
    perfect: bool
    decode_table: dict[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if self.lattice.n != self.sphere.n:
            raise BadParameters(f"generator is {self.lattice.n}-dimensional, sphere has n = {self.sphere.n}")
        q = self.lattice.labeling() if self.lattice.is_integer else None
        divs = () if q is None else q.divisors
        object.__setattr__(self, "_factors", None if q is None else tuple(zip(q.residues, divs)))
        object.__setattr__(self, "_errors", {  # a key that is no reduced label never matches
            reduce(lambda i, xd: i * xd[1] + xd[0], zip(label, divs), 0): err
            for label, err in (self.decode_table or {}).items()
            if len(label) == len(divs) and label == tuple(map(mod, label, divs))})

    def to_json_dict(self) -> dict:
        out = self.sphere.to_json_dict()
        out["generator"] = self.lattice.to_json_dict()["generator"]
        out["perfect"] = self.perfect
        if self.decode_table is not None:
            out["table"] = {
                ",".join(str(r) for r in label): ",".join(str(e) for e in err)
                for label, err in sorted(self.decode_table.items())
            }
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> LatticeCode:
        """Read a code file.  A code marked perfect must carry exactly the
        syndrome table its lattice and sphere determine; BadParameters if not,
        or if the file does not have the shape to_json_dict writes."""
        lat = Lattice.from_json_dict(data)
        for field in ("n", "t", "magnitudes", "perfect"):
            if field not in data:
                raise BadParameters(f"code file has no {field!r} field")
        mags = data["magnitudes"]
        if not isinstance(mags, list):
            raise BadParameters(f"magnitudes must be a JSON list, got {mags!r}")
        sphere = ErrorSphere(parse_int(data["n"], "n"), parse_int(data["t"], "t"),
                             tuple(parse_int(m, "a magnitude") for m in mags))
        perfect = data["perfect"]
        if not isinstance(perfect, bool):
            raise BadParameters(f"perfect must be a JSON boolean, got {perfect!r}")
        table = None
        if "table" in data:
            entries = data["table"]
            if not isinstance(entries, dict) or not all(isinstance(e, str) for e in entries.values()):
                raise BadParameters("table must be a JSON object of comma-separated strings")
            table = {}
            for key, err in entries.items():
                label = tuple(parse_int(r, "a syndrome") for r in key.split(",")) if key else ()
                table[label] = tuple(parse_int(e, "an error") for e in err.split(","))
        code = cls(lat, sphere, perfect, table)
        if perfect:
            try:
                expected = _syndrome_table(lat, sphere)
            except NotPerfect as exc:
                raise BadParameters(f"code file is marked perfect, but {exc}") from None
            if table != expected:
                raise BadParameters("code file is marked perfect, but its syndrome table "
                                    "is missing or wrong")
        return code


def _syndrome_table(lat: Lattice, sphere: ErrorSphere) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Coset label -> error for the whole sphere; the proof of perfectness: the
    errors fall in distinct cosets of a lattice whose index is the sphere size,
    so each coset holds exactly one error.  Raises NotPerfect otherwise."""
    table = {lat.coset_label(err): err for err in enumerate_sphere(sphere)}
    if not (len(table) == lat.volume == sphere.size):
        raise NotPerfect(f"{len(table)} distinct syndromes for {sphere.size} errors "
                         f"and a lattice of index {lat.volume}")
    return table


def perfect_code(n: int, magnitudes: Sequence[int]) -> LatticeCode:
    """Perfect code correcting up to n-1 asymmetric errors with the given
    per-cell magnitudes, built from a tiling lattice of the matching chair.

    No separate tiling check runs: _syndrome_table proves perfectness from the
    coset labels of the errors, and raises NotPerfect if they fall short.
    """
    n = as_int(n, "n")
    if n < 2:
        raise BadParameters(f"need n >= 2, got {n}")
    sphere = ErrorSphere.per_cell(tuple(magnitudes))
    if sphere.n != n:
        raise BadParameters(f"{n} cells but {sphere.n} magnitudes")
    shape = sphere.as_chair()
    try:
        lat = splitting_to_lattice(general_chair_splitting(shape))
    except HypothesisViolated:
        lat = chair_lattice(shape)
    return LatticeCode(lat, sphere, True, _syndrome_table(lat, sphere))


def decode(code: LatticeCode, received: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a received word into (codeword, error) by its coset label's mixed-radix number.
    Refuses in order: NotPerfect, BadParameters, NonIntegerLattice, DimensionMismatch, KeyError."""
    if not code.perfect or code.decode_table is None:
        raise NotPerfect("decode table is only defined for perfect codes")
    cells = tuple(received)
    if countOf(map(type, cells), int) != len(cells):  # a word of plain ints skips as_int
        cells = tuple([as_int(x, "a received cell") for x in cells])
    if code._factors is None or len(cells) != code.sphere.n:
        code.lattice.coset_label(cells)  # raises NonIntegerLattice or DimensionMismatch
    i = 0
    for r, d in code._factors:
        i = i * d + sum(map(mul, cells, r)) % d
    if i not in code._errors:
        raise KeyError(code.lattice.coset_label(cells))
    error = code._errors[i]
    return tuple(map(sub, cells, error)), error


@dataclass(frozen=True)
class SearchVerdict:
    """Result of a nonexistence test or an exhaustive perfect-code search."""

    status: str  # "NoPerfectCode" | "Found"
    examined: int = 0
    found: tuple[IntMatrix, ...] = ()
    detail: tuple[tuple[str, str], ...] = ()

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status, "examined": str(self.examined)}
        if self.found:
            out["found"] = [[[str(x) for x in row] for row in m.entries] for m in self.found]
        if self.detail:
            out["detail"] = {k: v for k, v in self.detail}
        return out


def nonexistence_divisibility_check(n: int, ell: int) -> SearchVerdict:
    """Necessary-condition test for perfect codes at t = n-2; the verdict is
    always NoPerfectCode.

    A perfect code forces the sphere size to divide
    (ell+1)^(n-2) * (ell+1 + lam*(n-2-ell)) for some 0 <= lam <= ell; when no
    candidate works the code cannot exist.  For ell >= 2 the short-vector
    argument rules the codes out even when some candidate divides.  For
    ell = 1 no candidate divides s = 2^n - n - 1: 2^(n-1) is below s, and for
    (n-1) * 2^(n-2), s is odd and above n - 1 when n is even, while for odd
    n the 2-part of s is that of n + 1, so the odd part of s is at least
    s / (n+1), above n - 1 once 2^n > n(n+1) (n = 5: s = 26, odd part 13).
    """
    n, ell = as_int(n, "n"), as_int(ell, "ell")
    if n < 4:
        raise BadParameters(f"need n >= 4, got {n}")
    if ell < 1:
        raise BadParameters(f"need ell >= 1, got {ell}")
    s = sphere_size(n, n - 2, ell)
    candidates = [(ell + 1) ** (n - 2) * (ell + 1 + lam * (n - 2 - ell)) for lam in range(ell + 1)]
    detail: dict[str, object] = {
        "sphere_size": s,
        "candidates": ",".join(str(c) for c in candidates),
        "path": "short-vector" if any(c % s == 0 for c in candidates) else "divisibility",
    }
    if ell == 1 and n >= 7:
        # growth bound confirming the lam = 1 candidate can never divide
        detail["bound_2^n_gt_2n(n+1)"] = 2**n > 2 * n * (n + 1)
    return SearchVerdict("NoPerfectCode", detail=sorted_detail(detail))


@cache
def _index_sublattice_count(n: int, s: int) -> int:
    """The sublattices of Z^n of index s, counted as Hermite forms by their
    last diagonal entry d: the d^(n-1) entries left of it are reduced modulo d.
    Cached, so a call costs n times the divisors of s rather than one step
    per ordered factorization of s."""
    if n == 1:
        return 1
    return sum(d ** (n - 1) * _index_sublattice_count(n - 1, s // d) for d in range(1, s + 1) if s % d == 0)


def _invariant_factors(s: int, n: int, base: int = 1) -> Iterator[tuple[int, ...]]:
    """Every chain d_1 | d_2 | ... | d_n of product s with base | d_1, in
    lexicographic order: each d_1 with d_1^n | s, then the chains of s / d_1."""
    if n == 1:
        yield (s,)
        return
    for d in range(base, s + 1, base):
        if s % d**n == 0:
            for rest in _invariant_factors(s // d, n - 1, d):
                yield (d,) + rest


class _Group:
    """Z_d1 + ... + Z_dk with its elements numbered in mixed radix, the last
    factor fastest: x is the sum of its digits x_c times stride_c, the product
    of the factors after c.  Subsets are bitmasks over those numbers.

    Adding an element to a subset moves its bits factor by factor: inside each
    block of d_c * stride_c numbers a bit rises by x_c * stride_c, and the bits
    that pass the end of their block wrap round to its start.  _moves gives
    those steps for one element when they are needed, and _shift takes them;
    no table over the elements is kept.
    """

    def __init__(self, divs: Sequence[int]) -> None:
        self.divs = tuple(divs)
        self.order = s = math.prod(divs)
        self.strides = tuple(math.prod(divs[c + 1:]) for c in range(len(divs)))
        # per factor: its order, stride, and bit 0 of each of its blocks
        self._factors = tuple((d, stride, ((1 << s) - 1) // ((1 << d * stride) - 1))
                              for d, stride in zip(self.divs, self.strides))

    def _moves(self, x: int, q: int) -> tuple[tuple[int, int, int], ...]:
        """The (low mask, rise, fall) steps by which _shift adds q times the
        element x: per factor, the bits below the fall keep to their block."""
        moves = []
        for d, stride, starts in self._factors:
            rise = q * (x // stride) % d * stride
            if rise:
                fall = d * stride - rise
                moves.append(((starts << fall) - starts, rise, fall))
        return tuple(moves)

    def kernel(self, beta: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Hermite normal form, row-wise, of the lattice of integer vectors v
        with sum v_i beta_i = 0: exactmath.labelling_kernel of beta's digits."""
        factors = [([b // stride % d for b in beta], d) for d, stride in zip(self.divs, self.strides)]
        return labelling_kernel(factors, len(beta))

    def splittings(self, n: int, t: int, ell: int) -> Iterator[tuple[int, ...]]:
        """Every strictly increasing beta in G^n, t >= 1, under which the
        uniform sphere's points take distinct values, whose first entry g is
        the least of its orbit and whose other entries' orbits go no lower."""
        s = self.order
        least = _orbit_least(self.divs)
        plan = _doubling_plan(ell)
        beta = [0] * n

        def extend(j: int, options: Sequence[int], weights: list[int],
                   used: int) -> Iterator[tuple[int, ...]]:
            # weights[w]: the values of the sphere points supported on the
            # first j coordinates with w nonzero entries; used: their union
            top = min(j + 1, t)
            for x in options:
                placed = self._place(weights, used, x, top, plan)
                if placed is None:
                    continue
                beta[j] = x
                if j + 1 == n:
                    yield tuple(beta)
                    continue
                grown, seen = placed
                # every entry after beta_0 = x has an orbit no lower than x's
                pool = options if j else [y for y in range(1, s) if least[y] >= x]
                # a value already taken can never be a later entry
                taken = f"{seen:0{s}b}"[::-1]
                later = [y for y in pool if y > x and taken[y] == "0"]
                if len(later) >= n - 1 - j:
                    yield from extend(j + 1, later, grown, seen)

        yield from extend(0, [x for x in range(1, s) if least[x] == x], [1] + [0] * t, 1)

    def _place(self, weights: list[int], used: int, x: int, top: int,
               plan: list[tuple[bool, int]]) -> tuple[list[int], int] | None:
        """weights and used after one more coordinate of value x: weight w
        gains weights[w - 1] + a*x for a = 1..ell, w <= top, built by the
        shifts of _doubling_plan(ell).  None as soon as two sphere points
        take one value."""
        grown = list(weights)
        last, moves = 0, ()  # moves: the moves of last*x
        for w in range(top, 0, -1):
            span = 0  # weights[w - 1] + a*x for the a covered so far
            for doubling, q in plan:
                if q != last:
                    moves, last = self._moves(x, q), q
                piece = _shift(span if doubling else weights[w - 1], moves)
                if piece & used:
                    return None
                used |= piece
                span |= piece
            grown[w] |= span
        return grown, used


def _doubling_plan(ell: int) -> list[tuple[bool, int]]:
    """Shifts that cover the multiples a = 1..ell of an element, read off
    ell's bits from the top: (True, p) doubles the span of 1..p by adding p,
    and (False, p + 1) adds the one multiple p + 1 to the base set.  That is
    at most 2 log2(ell) shifts rather than ell."""
    plan, p = [], 0
    for bit in f"{ell:b}":
        if p:
            plan.append((True, p))
            p *= 2
        if bit == "1":
            plan.append((False, p + 1))
            p += 1
    return plan


def _shift(mask: int, moves: tuple[tuple[int, int, int], ...]) -> int:
    """The subset mask plus one group element, given by its _Group._moves."""
    for low, rise, fall in moves:
        kept = mask & low
        mask = (kept << rise) | ((mask ^ kept) >> fall)
    return mask


def _orbit_least(divs: Sequence[int]) -> list[int]:
    """For each element of Z_d1 + ... + Z_dk, numbered as in _Group, the least
    number in its orbit under the automorphisms of the group; gcd(x, s) in
    Z_s.  Two elements share an orbit exactly when, for every divisor b of
    the group's exponent, they have the same order modulo bG (Kaplansky,
    Infinite Abelian Groups, read on each p-part with b = p^j).  If digit c
    of x has gcd g_c with d_c, that order is the lcm over c of
    gcd(b, d_c) / gcd(b, g_c)."""
    s = math.prod(divs)
    strides = [math.prod(divs[c + 1:]) for c in range(len(divs))]
    exponent = math.lcm(*divs)
    bs = [b for b in range(1, exponent + 1) if exponent % b == 0]
    orbits: dict[tuple, int] = {}  # gcds of the digits with their factors -> least
    first: dict[tuple, int] = {}  # orders modulo each bG -> the first element with them
    least = []
    for x in range(s):
        key = tuple(math.gcd(x // stride % d, d) for d, stride in zip(divs, strides))
        if key not in orbits:
            orders = tuple(math.lcm(*(math.gcd(b, d) // math.gcd(b, g) for d, g in zip(divs, key)))
                           for b in bs)
            orbits[key] = first.setdefault(orders, x)
        least.append(orbits[key])
    return least


def exhaustive_perfect_search(n: int, t: int, ell: int, budget: int | None = None) -> SearchVerdict:
    """Search every integer lattice of index = sphere size for perfect codes.

    A lattice L of index s = sphere size is a perfect code exactly when the
    sphere splits G = Z^n / L: under the labelling beta_i = e_i + L its points
    take s distinct values, so all of G.  Conversely a labelling beta of some
    group G of order s that splits the sphere has a kernel of index s.  So the
    search runs over the abelian groups G of order s with at most n
    invariant factors, backtracks over beta in G^n one entry at a time, and
    drops a branch once two partial sphere sums collide.  The values taken
    are bitmasks over G, one per weight; a new entry x adds their translates
    by x, 2x, ..., ell*x, built by doubling in about 2 log2(ell) shifts.

    Two symmetries cut it down.  The sphere is invariant under permuting the
    coordinates, and its unit vectors need distinct values, so beta is taken
    strictly increasing.  An automorphism a of G leaves the kernel alone;
    taking a to map the entry whose orbit has the least element g to g makes
    g the smallest entry, the least of its orbit, and no other entry's orbit
    goes below it.  In Z_s the automorphisms multiply by units, and g is a
    divisor of s.  Each surviving beta gives its kernel's Hermite form
    (_Group.kernel); one beta per kernel is kept and expanded over the n!
    orders of its entries.

    `examined` counts the lattices covered, every index-s sublattice, as the
    candidates of a search over Hermite normal forms would; an empty result is
    a constructive nonexistence proof at these parameters.  Both examined and
    s are charged to the budget up front.  Besides the kernels found, the
    search keeps O(s) numbers per group and the masks of one branch, O(n t s)
    bits, so its memory grows with the charged s.
    """
    n, t, ell = as_int(n, "n"), as_int(t, "t"), as_int(ell, "ell")
    s = sphere_size(n, t, ell)
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    examined = _index_sublattice_count(n, s)
    check_budget(examined, budget, "sublattice search")
    check_budget(s, budget, "sphere enumeration")
    if t == 0:  # s = 1: the sphere {0} tiles Z^n, the only index-1 lattice
        return SearchVerdict("Found", examined=examined, found=(IntMatrix.identity(n),))
    found: set[tuple[tuple[int, ...], ...]] = set()
    # each abelian group of order s with at most n invariant factors d_i | d_i+1,
    # padded on the left with 1s
    for diag in _invariant_factors(s, n):
        group = _Group([d for d in diag if d > 1])
        kept = {group.kernel(beta): beta for beta in group.splittings(n, t, ell)}
        for h, beta in kept.items():
            # found is closed under permuting coordinates, so a kernel already
            # in it brings all n! of its reorderings along
            if h not in found:
                found.update(group.kernel(order) for order in permutations(beta))
    status = "Found" if found else "NoPerfectCode"
    return SearchVerdict(status, examined=examined, found=tuple(map(IntMatrix, sorted(found))))
