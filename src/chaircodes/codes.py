"""Asymmetric limited-magnitude error codes built on chair tilings.

An error raises up to t of the n cells, each by at most its magnitude bound.
A lattice whose translates of that error sphere are disjoint is a lattice
code; when they cover Z^n exactly once the code is perfect and every syndrome
(coset label) pins down a unique error.  The t = n-1 sphere is itself a
chair, which is where the tiling constructions come in.  This module also
carries the nonexistence machinery for t = n-2: the divisibility test and an
exhaustive search over all sublattices of the right index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .budget import as_int, check_budget, parse_int
from .chair import Chair
from .errors import BadParameters, HypothesisViolated, NotPerfect
from .exactmath import IntMatrix, hnf_residue
from .lattice import Lattice, chair_lattice
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


def enumerate_sphere(s: ErrorSphere, budget: int | None = None) -> list[tuple[int, ...]]:
    """All error vectors of the sphere in lexicographic order."""
    check_budget(s.size, budget, "sphere enumeration")
    out: list[tuple[int, ...]] = []
    point = [0] * s.n

    def rec(i: int, nonzero: int) -> None:
        if i == s.n:
            out.append(tuple(point))
            return
        point[i] = 0
        rec(i + 1, nonzero)
        if nonzero < s.t:
            for x in range(1, s.magnitudes[i] + 1):
                point[i] = x
                rec(i + 1, nonzero + 1)
            point[i] = 0

    rec(0, 0)
    return out


@dataclass(eq=False)
class LatticeCode:
    """A lattice packing of the error sphere, with a syndrome table when perfect.

    The code is the extension of a linear code over Z_q exactly when the
    lattice absorbs q along every axis (Lattice.wraps).
    """

    lattice: Lattice
    sphere: ErrorSphere
    perfect: bool
    decode_table: dict[tuple[int, ...], tuple[int, ...]] | None = None

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
        mags = data["magnitudes"]
        if not isinstance(mags, list):
            raise BadParameters(f"magnitudes must be a JSON list, got {mags!r}")
        sphere = ErrorSphere(parse_int(data["n"], "n"), parse_int(data["t"], "t"),
                             tuple(parse_int(m, "a magnitude") for m in mags))
        if lat.n != sphere.n:
            raise BadParameters(f"generator is {lat.n}-dimensional, sphere has n = {sphere.n}")
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
        if perfect:
            try:
                expected = _syndrome_table(lat, sphere)
            except NotPerfect as exc:
                raise BadParameters(f"code file is marked perfect, but {exc}") from None
            if table != expected:
                raise BadParameters("code file is marked perfect, but its syndrome table "
                                    "is missing or wrong")
        return cls(lat, sphere, perfect, table)


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
    """Split a received word into (codeword, error) via its syndrome."""
    if not code.perfect or code.decode_table is None:
        raise NotPerfect("decode table is only defined for perfect codes")
    received = [as_int(x, "a received cell") for x in received]
    error = code.decode_table[code.lattice.coset_label(received)]
    codeword = tuple(r - e for r, e in zip(received, error))
    return codeword, error


@dataclass(frozen=True)
class SearchVerdict:
    """Result of a nonexistence test or an exhaustive perfect-code search."""

    status: str  # "NoPerfectCode" | "Inconclusive" | "Found"
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
    """Necessary-condition test for perfect codes at t = n-2.

    A perfect code forces the sphere size to divide
    (ell+1)^(n-2) * (ell+1 + lam*(n-2-ell)) for some 0 <= lam <= ell; when no
    candidate works the code cannot exist.  For ell >= 2 the short-vector
    argument rules the codes out even when some candidate divides.
    """
    n, ell = as_int(n, "n"), as_int(ell, "ell")
    if n < 4:
        raise BadParameters(f"need n >= 4, got {n}")
    if ell < 1:
        raise BadParameters(f"need ell >= 1, got {ell}")
    s = sphere_size(n, n - 2, ell)
    candidates = [(ell + 1) ** (n - 2) * (ell + 1 + lam * (n - 2 - ell)) for lam in range(ell + 1)]
    divisible = [c for c in candidates if c % s == 0]
    detail: dict[str, object] = {
        "sphere_size": s,
        "candidates": ",".join(str(c) for c in candidates),
    }
    if not divisible:
        detail["path"] = "divisibility"
        if ell == 1 and n >= 7:
            # growth bound confirming the lam = 1 candidate can never divide
            detail["bound_2^n_gt_2n(n+1)"] = 2**n > 2 * n * (n + 1)
        return SearchVerdict("NoPerfectCode", detail=_sorted_detail(detail))
    if ell >= 2:
        detail["path"] = "short-vector"
        return SearchVerdict("NoPerfectCode", detail=_sorted_detail(detail))
    detail["path"] = "divisibility"
    return SearchVerdict("Inconclusive", detail=_sorted_detail(detail))


def _sorted_detail(detail: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in sorted(detail.items()))


def _index_sublattice_count(n: int, s: int) -> int:
    total = 0
    for diag in _ordered_factorizations(s, n):
        weight = 1
        for i, d in enumerate(diag):
            weight *= d**i
        total += weight
    return total


def _ordered_factorizations(s: int, n: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (s,)
        return
    for d in range(1, s + 1):
        if s % d == 0:
            for rest in _ordered_factorizations(s // d, n - 1):
                yield (d,) + rest


def exhaustive_perfect_search(n: int, t: int, ell: int, budget: int | None = None) -> SearchVerdict:
    """Search every integer lattice of index = sphere size for perfect codes.

    Candidates are the lower-triangular Hermite normal forms h of index s =
    sphere size (complete and duplicate-free): for each diagonal d with
    product s, each entry h[i][k] below the diagonal ranges over 0..d_i - 1.
    A candidate is a perfect code exactly when the sphere's points reduce to
    distinct residues modulo h (exactmath.hnf_residue): a repeated residue is a
    nonzero sphere difference in the lattice, and distinct residues fill all
    cosets of a lattice whose index is s.

    The search backtracks over the columns of h, from column n-1 down to 0.
    Once columns k..n-1 are fixed, the lattice vectors supported on
    coordinates k..n-1 are exactly the span of that block, since h is
    lower-triangular, and no choice for the columns left of k changes them.
    So two sphere points p, q with p[:k] == q[:k] share a coset in every
    completion exactly when p[k:] and q[k:] have the same residue modulo the
    block.  That residue starts with p_k mod d_k, so only points agreeing in
    p[:k] and in p_k mod d_k can collide.  A column choice that forces such a
    collision drops its whole subtree; at k = 0 the test is the full residue
    test, so a leaf that passes is a perfect code.  Each residue is built from
    the one modulo columns k+1..n-1.

    `examined` counts the candidates covered, tested at a leaf or dropped
    with a subtree: always the full count of index-s sublattices.  An empty
    result is a constructive nonexistence proof at these parameters.
    """
    n, t, ell = as_int(n, "n"), as_int(t, "t"), as_int(ell, "ell")
    s = sphere_size(n, t, ell)
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    examined = _index_sublattice_count(n, s)
    check_budget(examined, budget, "sublattice search")
    pts = enumerate_sphere(ErrorSphere.uniform(n, t, ell), budget)
    found: list[IntMatrix] = []
    for diag in _ordered_factorizations(s, n):
        h = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]

        def fill(k: int, state: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> None:
            # state pairs each sphere point p with its residue modulo columns
            # k+1..n-1; a point with p_k < d_k keeps it whatever column k is
            block = tuple(tuple(row[k + 1:]) for row in h[k + 1:])
            fixed, moving = [], []
            for p, r in state:
                c, rk = divmod(p[k], diag[k])
                if c:
                    moving.append((p, rk, c, r))
                else:
                    fixed.append((p, (rk,) + r))
            # fixed keys are distinct: with p_k < d_k, (p[:k], (p_k mod d_k,) + r)
            # is the key (p[:k+1], r) that the parent found distinct
            fixed_keys = {(p[:k], r) for p, r in fixed}
            for tail in product(*(range(d) for d in diag[k + 1:])):
                for i, x in enumerate(tail, k + 1):
                    h[i][k] = x
                keys = set(fixed_keys)
                moved = []
                for p, rk, c, r in moving:
                    res = (rk,) + hnf_residue(block, [a - c * b for a, b in zip(r, tail)])
                    key = (p[:k], res)
                    if key in keys:
                        break
                    keys.add(key)
                    moved.append((p, res))
                else:
                    if k:
                        fill(k - 1, fixed + moved)
                    else:
                        found.append(IntMatrix(tuple(map(tuple, h))))

        fill(n - 1, [(p, ()) for p in pts])
    found.sort(key=lambda m: m.entries)
    status = "Found" if found else "NoPerfectCode"
    return SearchVerdict(status, examined=examined, found=tuple(found))
