"""Independent brute-force oracles used to cross-check the library.

Nothing here calls the code paths it is checking: determinants come from
cofactor expansion, shape overlaps from explicit point sets, memberships from
exhaustive coefficient scans.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from chaircodes.chair import Chair
from chaircodes.codes import SearchVerdict, _hnf_candidates, sphere_size
from chaircodes.exactmath import IntMatrix
from chaircodes.lattice import Lattice


def cofactor_determinant(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += sign * rows[0][j] * cofactor_determinant(minor)
        sign = -sign
    return total


def chair_point_set(c: Chair) -> frozenset[tuple[int, ...]]:
    """Integer points of a discrete chair by scanning the whole bounding box."""
    sides = c.int_sides()
    notch = c.int_notch()
    pts = set()
    for p in product(*[range(l) for l in sides]):
        if any(x < l - k for x, l, k in zip(p, sides, notch)):
            pts.add(p)
    return frozenset(pts)


def brute_force_intersects(points: frozenset[tuple[int, ...]], shift: tuple[int, ...]) -> bool:
    """Whether the point set and its translate by shift share a point."""
    return any(tuple(a - s for a, s in zip(p, shift)) in points for p in points)


def difference_set(points: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """All pairwise differences; a shift overlaps the set iff it is in here."""
    return frozenset(tuple(a - b for a, b in zip(p, q)) for p in points for q in points)


def random_unimodular(n: int, rng: random.Random, steps: int = 12) -> IntMatrix:
    """Product of elementary row operations applied to the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 1:
            m[i] = [-x for x in m[i]]
        elif i != j:
            q = rng.randint(-3, 3)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return IntMatrix(tuple(map(tuple, m)))


def random_chair(rng: random.Random, n: int, max_side: int = 6) -> Chair:
    sides = tuple(rng.randint(2, max_side) for _ in range(n))
    notch = tuple(rng.randint(1, l - 1) for l in sides)
    return Chair(sides, notch)


def random_rational_chair(rng: random.Random, n: int) -> Chair:
    sides = []
    notch = []
    for _ in range(n):
        den = rng.choice([1, 2, 3, 4])
        l = Fraction(rng.randint(2 * den, 6 * den), den)
        k = Fraction(rng.randint(1, int(l * den) - 1), den)
        sides.append(l)
        notch.append(k)
    return Chair(tuple(sides), tuple(notch))


def all_valid_chairs(n: int, max_side: int):
    """Every integer chair with 2 <= l_i <= max_side and all valid notches."""
    side_choices = []
    for l in range(2, max_side + 1):
        for k in range(1, l):
            side_choices.append((l, k))
    for combo in product(side_choices, repeat=n):
        yield Chair(tuple(l for l, _ in combo), tuple(k for _, k in combo))


def reference_perfect_search(n: int, t: int, ell: int) -> SearchVerdict:
    """Exhaustive perfect-code search by lattice membership: a candidate of
    index |S| is perfect when no nonzero difference of two sphere points is a
    lattice vector.  Builds a full Lattice per candidate and decides membership
    by its Smith-form coset label, never by the HNF residue that the library's
    search and Lattice.member rely on."""
    sphere = [e for e in product(range(ell + 1), repeat=n) if sum(1 for x in e if x) <= t]
    diffs = {tuple(a - b for a, b in zip(p, q)) for p in sphere for q in sphere} - {(0,) * n}
    found = []
    examined = 0
    for h in _hnf_candidates(n, sphere_size(n, t, ell)):
        examined += 1
        lat = Lattice(h.transpose().entries)  # rows of the lattice = columns of h
        if all(any(lat.coset_label(d)) for d in diffs):
            found.append(h)
    found.sort(key=lambda m: m.entries)
    return SearchVerdict("Found" if found else "NoPerfectCode", examined=examined, found=tuple(found))
