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
from typing import Iterator, Sequence

from .budget import check_budget
from .chair import Chair, iter_box
from .errors import BadParameters, HypothesisViolated, NotPerfect
from .exactmath import IntMatrix, hnf_residue
from .lattice import Lattice, chair_lattice
from .splitting import general_chair_splitting, splitting_to_lattice


def sphere_size(n: int, t: int, ell: int) -> int:
    """Number of error vectors: sum over i <= t of C(n, i) * ell^i."""
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
        mags = tuple(int(x) for x in self.magnitudes)
        if len(mags) != self.n:
            raise BadParameters(f"{self.n} cells but {len(mags)} magnitudes")
        if not 0 <= self.t <= self.n:
            raise BadParameters(f"need 0 <= t <= n, got t={self.t}, n={self.n}")
        if any(m < 1 for m in mags):
            raise BadParameters("magnitudes must be >= 1")
        if len(set(mags)) > 1 and self.t != self.n - 1:
            raise BadParameters("per-cell magnitudes are only supported for t = n-1")
        object.__setattr__(self, "magnitudes", mags)

    @classmethod
    def uniform(cls, n: int, t: int, ell: int) -> ErrorSphere:
        return cls(n, t, (int(ell),) * n)

    @classmethod
    def per_cell(cls, magnitudes: Sequence[int]) -> ErrorSphere:
        mags = tuple(int(x) for x in magnitudes)
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
    out.sort()
    return out


@dataclass(eq=False)
class LatticeCode:
    """A lattice packing of the error sphere, with a syndrome table when perfect.

    The lattice is the one canonical object; alphabets are views of it.  The
    code is the extension of a linear code over Z_q exactly when the lattice
    absorbs q along every axis (see wraps_alphabet).
    """

    lattice: Lattice
    sphere: ErrorSphere
    perfect: bool
    decode_table: dict[tuple[int, ...], tuple[int, ...]] | None = None

    def wraps_alphabet(self, q: int) -> bool:
        """Whether q*e_i is a lattice vector for every axis, i.e. codeword
        arithmetic may wrap modulo q."""
        return self.lattice.wraps(q)

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
        syndrome table its lattice and sphere determine; BadParameters if not."""
        sphere = ErrorSphere(int(data["n"]), int(data["t"]),
                             tuple(int(m) for m in data["magnitudes"]))
        lat = Lattice(data["generator"])
        perfect = bool(data["perfect"])
        table = None
        if "table" in data:
            table = {}
            for key, err in data["table"].items():
                label = tuple(int(r) for r in key.split(",")) if key else ()
                table[label] = tuple(int(e) for e in err.split(","))
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
    received = tuple(int(x) for x in received)
    error = code.decode_table[code.lattice.coset_label(received)]
    codeword = tuple(r - e for r, e in zip(received, error))
    return codeword, error


@dataclass(frozen=True)
class AlphabetCode:
    """Finite-alphabet code: the lattice restricted to {0..sigma-1}^n."""

    sigma: int
    n: int
    codewords: tuple[tuple[int, ...], ...]


def extract_alphabet_code(code: LatticeCode, sigma: int, budget: int | None = None) -> AlphabetCode:
    """All lattice points inside the sigma-ary cube, verified non-confusable:
    no two codewords can reach the same word within the cube under sphere errors."""
    if sigma < 1:
        raise BadParameters(f"need sigma >= 1, got {sigma}")
    n = code.sphere.n
    check_budget(sigma**n, budget, "alphabet extraction")
    words = [p for p in iter_box([sigma] * n) if code.lattice.member(p)]
    reached: dict[tuple[int, ...], tuple[int, ...]] = {}
    errors = enumerate_sphere(code.sphere, budget)
    for w in words:
        for err in errors:
            y = tuple(a + b for a, b in zip(w, err))
            if any(v >= sigma for v in y):
                continue
            if y in reached and reached[y] != w:
                raise NotPerfect(f"codewords {reached[y]} and {w} are confusable at {y}")
            reached[y] = w
    return AlphabetCode(sigma, n, tuple(words))


def n_plus_minus(p: Sequence[int]) -> tuple[int, int]:
    """Counts of strictly positive and strictly negative coordinates."""
    return sum(1 for x in p if x > 0), sum(1 for x in p if x < 0)


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


def _hnf_candidates(n: int, s: int) -> Iterator[IntMatrix]:
    # lower-triangular column bases: diagonal product s, row entries left of
    # the diagonal reduced modulo it — each index-s sublattice appears once
    for diag in _ordered_factorizations(s, n):
        slots = [(i, j) for i in range(n) for j in range(i)]
        h = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]

        def rec(k: int) -> Iterator[IntMatrix]:
            if k == len(slots):
                yield IntMatrix(tuple(map(tuple, h)))
                return
            i, j = slots[k]
            for val in range(diag[i]):
                h[i][j] = val
                yield from rec(k + 1)
            h[i][j] = 0

        yield from rec(0)


def exhaustive_perfect_search(n: int, t: int, ell: int, budget: int | None = None) -> SearchVerdict:
    """Search every integer lattice of index = sphere size for perfect codes.

    Candidates are enumerated through their Hermite normal forms (complete and
    duplicate-free).  A candidate is a perfect code exactly when the sphere's
    points reduce to distinct residues modulo its HNF: a repeated residue is a
    nonzero sphere difference in the lattice, and distinct residues fill all
    cosets of a lattice whose index is the sphere size.  Reduction stops at
    the first repeated residue.  An empty result is a constructive
    nonexistence proof at these parameters.
    """
    s = sphere_size(n, t, ell)
    check_budget(_index_sublattice_count(n, s), budget, "sublattice search")
    sphere_pts = enumerate_sphere(ErrorSphere.uniform(n, t, ell), budget)
    found: list[IntMatrix] = []
    examined = 0
    for h in _hnf_candidates(n, s):
        examined += 1
        seen: set[tuple[int, ...]] = set()
        for p in sphere_pts:
            r = hnf_residue(h.entries, p)
            if r in seen:
                break
            seen.add(r)
        else:
            found.append(h)
    found.sort(key=lambda m: m.entries)
    status = "Found" if found else "NoPerfectCode"
    return SearchVerdict(status, examined=examined, found=tuple(found))
