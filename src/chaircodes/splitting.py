"""Splittings: group-residue representations of chair tilings.

A chair splits a finite Abelian group G = Z_d1 + ... + Z_dk when the values of
its points under a labelling of the unit vectors (a SplittingSequence) are
pairwise distinct.  A cyclic group Z_m is the one-factor case, where the
labelling is a plain residue vector beta.  An integer lattice tiles the chair
exactly when the chair splits Z^n / lattice, so splittings and lattice
tilings are two views of the same object; both directions of the conversion
live here.
"""

from __future__ import annotations

import math

from . import exactmath
from .budget import as_int
from .chair import Chair, enumerate_points, volume
from .errors import BadParameters, HypothesisViolated, NotDiscrete
from .exactmath import IntMatrix, mod_inverse
from .lattice import Lattice, SplittingSequence, Verdict, chair_cycle


def alpha_unit(n: int, ell: int) -> int:
    """The unit l*(l-1)^-1 of Z_{l^n - (l-1)^n}; it has multiplicative order
    exactly n and its first n powers sum to zero."""
    n, ell = as_int(n, "n"), as_int(ell, "ell")
    if n < 2 or ell < 2:
        raise BadParameters(f"need n >= 2 and ell >= 2, got n={n}, ell={ell}")
    m = ell**n - (ell - 1) ** n
    return ell * mod_inverse(ell - 1, m) % m


def uniform_chair_splitting(n: int, ell: int) -> SplittingSequence:
    """Splitting of Z_{l^n - (l-1)^n} by the chair with all sides l and all
    notch sides l-1: successive powers of the order-n unit alpha_unit.  l-1
    is a unit, so general_chair_splitting reorders nothing."""
    n, ell = as_int(n, "n"), as_int(ell, "ell")
    if n < 2 or ell < 2:
        raise BadParameters(f"need n >= 2 and ell >= 2, got n={n}, ell={ell}")
    return general_chair_splitting(Chair((ell,) * n, (ell - 1,) * n))


def general_chair_splitting(c: Chair) -> SplittingSequence:
    """Splitting of Z_{volume} for any discrete chair whose notch sides are
    units of the group, except possibly one.

    The first coordinate of the order has residue 1, and each next one b,
    after a, has beta_b = beta_a * l_a / k_b.  The order is the identity
    unless exactly one notch side shares a factor with the group order; then
    the coordinates are reordered to put it first (its inverse is never
    needed), and the reordering is recorded in the result.  Two or more such sides violate
    the hypothesis and raise.
    """
    if not c.is_discrete:
        raise NotDiscrete("splitting construction needs a discrete chair")
    sides = c.int_sides()
    notch = c.int_notch()
    n = c.n
    m = int(volume(c))
    offenders = [i for i in range(n) if math.gcd(notch[i], m) != 1]
    if len(offenders) > 1:
        bad = offenders[1] + 1
        raise HypothesisViolated(bad, f"k_{bad} = {notch[offenders[1]]} shares a factor with {m}")
    first = offenders[0] if offenders else 0
    perm = (first,) + tuple(i for i in range(n) if i != first)
    beta = [0] * n
    beta[first] = 1 % m
    for a, b in zip(perm, perm[1:]):
        beta[b] = mod_inverse(notch[b], m) * sides[a] * beta[a] % m
    return SplittingSequence.cyclic(m, beta, perm)


def verify_splitting(c: Chair, s: SplittingSequence) -> Verdict:
    """Check that the chair points take pairwise distinct values under s.

    When s's residues generate G and s has value 0 on the chair's rows along
    some n-cycle of the coordinates (chair_cycle), its kernel has index
    vol(c) and holds those rows, so it is a lattice tiling the chair and s
    passes.  Otherwise the chair's points are labelled one by one, which is
    exact and reports the first colliding pair in lexicographic order.
    """
    if not c.is_discrete:
        raise NotDiscrete("splitting verification needs a discrete chair")
    vol = int(volume(c))
    if s.n != c.n:
        return Verdict.failed("sequence length does not match chair dimension")
    if s.order != vol:
        return Verdict.failed("group order does not match chair volume",
                              group_order=s.order, chair_volume=vol)
    if _generates(s) and chair_cycle(c.int_sides(), c.int_notch(), lambda v: not any(s.value(v))):
        return Verdict.passed(values=vol)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in enumerate_points(c):
        val = s.value(p)
        if val in seen:
            return Verdict.failed("two chair points share a group value", (seen[val], p))
        seen[val] = p
    return Verdict.passed(values=vol)


def _generates(s: SplittingSequence) -> bool:
    """Whether the labels of e_1..e_n generate G = Z_d1 + ... + Z_dk: with
    the vectors d_j*e_j they must span Z^k, so every pivot of their echelon
    form is 1 or -1."""
    k = len(s.divisors)
    if k == 1:
        return math.gcd(*s.divisors, *s.residues[0]) == 1
    vecs = [list(col) for col in zip(*s.residues)]
    vecs += [[d if t == j else 0 for t in range(k)] for j, d in enumerate(s.divisors)]
    exactmath._echelon(vecs, None, k)
    return all(abs(vecs[j][j]) == 1 for j in range(k))


def splitting_to_lattice(s: SplittingSequence) -> Lattice:
    """Kernel lattice of the labelling: all integer vectors whose value is zero.

    The kernel basis is read off the integer kernel of the residue rows
    stacked with the diagonal of group orders; factors of order 1 add
    nothing and are skipped.  The lattice volume equals the size of the
    labelling's image, which can be smaller than the group order when the
    residues do not generate the group.
    """
    factors = [(d, row) for d, row in zip(s.divisors, s.residues) if d != 1]
    k = len(factors)
    if k == 0:
        return Lattice(IntMatrix.identity(s.n).entries)
    stacked = [row + tuple(d if t == j else 0 for t in range(k)) for j, (d, row) in enumerate(factors)]
    kernel = exactmath.integer_kernel(IntMatrix(tuple(stacked)))
    return Lattice([row[:s.n] for row in kernel.entries])


def lattice_to_splitting(lat: Lattice) -> SplittingSequence:
    """Labels of the unit vectors in Z^n / lattice (Lattice.labeling).

    A cyclic quotient is scaled so that the leading residue becomes 1
    whenever it is a unit.
    """
    s = lat.labeling()
    if len(s.divisors) == 1 and math.gcd(s.residues[0][0], s.divisors[0]) == 1:
        (m,), (beta,) = s.divisors, s.residues
        u = mod_inverse(beta[0], m)
        return SplittingSequence.cyclic(m, [b * u % m for b in beta])
    return s
