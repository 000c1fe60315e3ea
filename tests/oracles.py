"""Independent brute-force oracles used to cross-check the library.

Nothing here calls the code paths it is checking: determinants come from
cofactor expansion, shape overlaps from explicit point sets, memberships from
exhaustive coefficient scans.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterator

import numpy as np

from chaircodes.budget import as_int, check_budget
from chaircodes.chair import Chair, as_exact, enumerate_points, shifted_copies_intersect, volume
from chaircodes.codes import (
    ErrorSphere,
    SearchVerdict,
    enumerate_sphere,
    sphere_size,
)
from chaircodes.errors import (
    BadParameters,
    BudgetExceeded,
    DimensionMismatch,
    NonIntegerLattice,
    NonSquare,
    NotDiscrete,
    SingularMatrix,
)
from chaircodes.exactmath import IntMatrix, hnf_residue
from chaircodes.lattice import Lattice, SplittingSequence, Verdict
from chaircodes.wom import Coloring, PaddedGrid


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


def _ordered_factorizations(s: int, n: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (s,)
        return
    for d in range(1, s + 1):
        if s % d == 0:
            for rest in _ordered_factorizations(s // d, n - 1):
                yield (d,) + rest


def reference_index_sublattice_count(n: int, s: int) -> int:
    """The index-s sublattices of Z^n: one Hermite form per entry of each
    ordered factorization d of s below the diagonal, prod d_i^i of them."""
    return sum(math.prod(d**i for i, d in enumerate(diag)) for diag in _ordered_factorizations(s, n))


def reference_invariant_factors(s: int, n: int) -> list[tuple[int, ...]]:
    """The ordered factorizations of s into n parts that form a divisor chain."""
    return [diag for diag in _ordered_factorizations(s, n) if not any(b % a for a, b in zip(diag, diag[1:]))]


def hnf_candidates(n: int, s: int):
    # lower-triangular column bases as plain row tuples: diagonal product s,
    # entries left of the diagonal reduced modulo it — each index-s sublattice
    # appears once
    for diag in _ordered_factorizations(s, n):
        slots = [(i, j) for i in range(n) for j in range(i)]
        h = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]

        def rec(k: int):
            if k == len(slots):
                yield tuple(map(tuple, h))
                return
            i, j = slots[k]
            for val in range(diag[i]):
                h[i][j] = val
                yield from rec(k + 1)
            h[i][j] = 0

        yield from rec(0)


def reference_hnf_search(n: int, t: int, ell: int, budget: int | None = None) -> SearchVerdict:
    """Exhaustive perfect-code search by testing every HNF candidate in turn:
    the sphere's points must reduce to distinct residues modulo it.  No
    candidate is skipped, so this is the plain loop the library's pruned
    column search must agree with."""
    s = sphere_size(n, t, ell)
    check_budget(reference_index_sublattice_count(n, s), budget, "sublattice search")
    check_budget(s, budget, "sphere enumeration")
    sphere_pts = enumerate_sphere(ErrorSphere.uniform(n, t, ell))
    found: list[IntMatrix] = []
    examined = 0
    for h in hnf_candidates(n, s):
        examined += 1
        seen: set[tuple[int, ...]] = set()
        for p in sphere_pts:
            r = hnf_residue(h, p)
            if r in seen:
                break
            seen.add(r)
        else:
            found.append(IntMatrix(h))
    found.sort(key=lambda m: m.entries)
    status = "Found" if found else "NoPerfectCode"
    return SearchVerdict(status, examined=examined, found=tuple(found))


def reference_column_search(n: int, t: int, ell: int, budget: int | None = None) -> SearchVerdict:
    """The library's perfect-code search before it became a splitting search:
    search every integer lattice of index = sphere size for perfect codes.

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
    examined = reference_index_sublattice_count(n, s)
    check_budget(examined, budget, "sublattice search")
    check_budget(s, budget, "sphere enumeration")
    pts = enumerate_sphere(ErrorSphere.uniform(n, t, ell))
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


def reference_orbit_least(divs: tuple[int, ...]) -> list[int]:
    """For each element of Z_d1 + ... + Z_dk, numbered in mixed radix with the
    last factor fastest, the least number in its automorphism orbit.  Every
    homomorphism is tried (images of the generators e_c with d_c * image = 0)
    and the bijective ones are applied."""
    s = math.prod(divs)
    elems = list(product(*(range(d) for d in divs)))  # elems[x] is element number x

    def number(comps) -> int:
        x = 0
        for a, d in zip(comps, divs):
            x = x * d + a % d
        return x

    orders_ok = [[y for y in elems if all(d * a % m == 0 for a, m in zip(y, divs))] for d in divs]
    least = list(range(s))
    for images in product(*orders_ok):
        mapped = [number([sum(x[c] * images[c][i] for c in range(len(divs))) for i in range(len(divs))])
                  for x in elems]
        if len(set(mapped)) == s:
            least = [min(a, b) for a, b in zip(least, mapped)]
    return least


def reference_perfect_search(n: int, t: int, ell: int) -> SearchVerdict:
    """Exhaustive perfect-code search by lattice membership: a candidate of
    index |S| is perfect when no nonzero difference of two sphere points is a
    lattice vector.  Builds a full Lattice per candidate and decides membership
    by its Smith-form coset label, never by the HNF residue that the library's
    search relies on."""
    sphere = [e for e in product(range(ell + 1), repeat=n) if sum(1 for x in e if x) <= t]
    diffs = {tuple(a - b for a, b in zip(p, q)) for p in sphere for q in sphere} - {(0,) * n}
    found = []
    examined = 0
    for h in hnf_candidates(n, sphere_size(n, t, ell)):
        examined += 1
        lat = Lattice(tuple(zip(*h)))  # rows of the lattice = columns of h
        if all(any(lat.coset_label(d)) for d in diffs):
            found.append(IntMatrix(h))
    found.sort(key=lambda m: m.entries)
    return SearchVerdict("Found" if found else "NoPerfectCode", examined=examined, found=tuple(found))


def scaled_rows(lat: Lattice) -> list[list[int]]:
    """The generator of the integer model sL: every row times the scale s,
    the least integer with sL inside Z^n."""
    return [[int(x * lat.scale) for x in row] for row in lat.generator]


def reference_member(lat: Lattice, p) -> bool:
    """Lattice.member by the Smith labelling rather than the Hermite form:
    s*p must be an integer vector in the kernel of the labelling of the
    integer model s*L, s being the scale."""
    if len(p) != lat.n:
        raise DimensionMismatch(f"point has {len(p)} coordinates, lattice is {lat.n}-dimensional")
    sp = [x * lat.scale for x in p]
    if any(x.denominator != 1 for x in sp):
        return False
    return not any(Lattice(scaled_rows(lat)).labeling().value([int(x) for x in sp]))


def reference_lattice_points_in_box(lat: Lattice, max_abs):
    """All integer-lattice points x with |x_i| <= max_abs[i], zero included.

    Works down the lower-triangular canonical basis, so only coefficient
    ranges that can stay inside the box are ever visited.
    """
    h = lat.canonical().entries  # lower triangular, columns are basis vectors
    n = lat.n
    coords = [0] * n
    bounds = [int(b) for b in max_abs]

    def rec(i: int):
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


def _value_keys(s: SplittingSequence, ranges, start: int, sign: int) -> list[int]:
    """sign * s.value(x) for every x of product(*ranges) placed at
    coordinates start.., in product order, each point's values as one
    mixed-radix int, built one axis at a time."""
    keys = [0] * math.prod(map(len, ranges))
    radix = 1
    for r, d in zip(s.residues, s.divisors):
        col = [0]
        for b, xs in zip(r[start:], ranges):
            steps = [sign * x * b % d for x in xs]
            col = [(g + t) % d for g in col for t in steps]
        keys = col if radix == 1 else [k + radix * v for k, v in zip(keys, col)]
        radix *= d
    return keys


def reference_box_join(lat: Lattice, bounds) -> Iterator[tuple[int, ...]]:
    """The points x of the integer lattice lat with |x_i| <= bounds[i], met
    in the middle on its Smith labels, whose kernel is the lattice.

    The coordinates split into a prefix A and a suffix B whose half-boxes are
    as equal in size as the split allows.  Every x_A is tabled by its label
    and every x_B by its negated label, and x_A + x_B is a lattice point
    exactly when the two agree.  Yields each such x_A + x_B, in lexicographic
    order.  The larger table is checked against the budget.
    """
    s = lat.labeling()
    if len(bounds) != s.n:
        raise DimensionMismatch(f"{len(bounds)} bounds for {s.n} coordinates")
    ranges = [range(-b, b + 1) for b in bounds]
    sizes = [len(r) for r in ranges]
    half, a = min((max(math.prod(sizes[:a]), math.prod(sizes[a:])), a) for a in range(len(sizes) + 1))
    check_budget(half, None, "lattice box join")
    prefix, suffix = ranges[:a], ranges[a:]
    completions: dict[int, list[tuple[int, ...]]] = {}
    for xb, k in zip(product(*suffix), _value_keys(s, suffix, a, -1)):
        completions.setdefault(k, []).append(xb)
    for xa, k in zip(product(*prefix), _value_keys(s, prefix, 0, 1)):
        for xb in completions.get(k, ()):
            yield xa + xb


def reference_verify_splitting(c: Chair, s: SplittingSequence, budget: int | None = None) -> Verdict:
    """Splitting check by labelling every chair point and stopping at the
    first value seen twice."""
    vol = int(volume(c))
    check_budget(vol, budget, "splitting verification")
    if s.n != c.n:
        return Verdict.failed("sequence length does not match chair dimension")
    if s.order != vol:
        return Verdict.failed("group order does not match chair volume",
                              group_order=s.order, chair_volume=vol)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in enumerate_points(c):
        val = s.value(p)
        if val in seen:
            return Verdict.failed("two chair points share a group value", (seen[val], p))
        seen[val] = p
    return Verdict.passed(values=len(seen))


def reference_verify_packing(lat: Lattice, c: Chair) -> Verdict:
    """Packing check on the common-denominator integer model of the pair: the
    lattice and the chair are both scaled by the lcm S of every denominator in
    either, so the overlap test runs on an integer chair and the witness is
    scaled back by 1/S.  The library instead scales the lattice alone."""
    s = math.lcm(*(x.denominator for row in lat.generator for x in row),
                 *(x.denominator for x in c.sides + c.notch))
    ilat = Lattice([[x * s for x in row] for row in lat.generator])
    ic = Chair(tuple(l * s for l in c.sides), tuple(k * s for k in c.notch))
    for x in reference_lattice_points_in_box(ilat, [l - 1 for l in ic.int_sides()]):
        if any(x) and shifted_copies_intersect(ic, x):
            return Verdict.failed("copies at 0 and witness overlap",
                                  tuple(as_exact(Fraction(xi, s)) for xi in x))
    return Verdict.passed()


def reference_build_coloring(lat: Lattice, c: Chair, q: int) -> Coloring:
    """Coset coloring of a tiling by one coset label per grid cell, each
    mapped to the rank of the chair point that shares it."""
    index = {lat.coset_label(p): i for i, p in enumerate(enumerate_points(c))}
    colors = tuple(index[lat.coset_label(p)] for p in product(range(q), repeat=c.n))
    return Coloring(q, c.n, len(index), colors, lat, c)


def reference_check_write_guarantee(col: Coloring, c: Chair) -> Verdict:
    """The write guarantee anchor by anchor: list the colors of the cells
    p - e over the chair points e, wrapping modulo q on the torus, and compare
    them, sorted, with the colors 0..sigma-1, each once."""
    reps = enumerate_points(c)
    sides = c.int_sides()
    q = col.q
    torus = col.lattice.wraps(q)
    if not torus and any(l > q for l in sides):
        return Verdict.passed(mode="interior", anchors=0)
    mode = "torus" if torus else "interior"
    anchors = 0
    for p in product(range(q), repeat=col.n):
        if not torus and any(a < l - 1 for a, l in zip(p, sides)):
            continue
        anchors += 1
        seen = sorted(col.color_of(tuple((a - e) % q for a, e in zip(p, rp))) for rp in reps)
        if seen != list(range(col.sigma)):
            return Verdict.failed("anchor misses a color", p, mode=mode)
    return Verdict.passed(mode=mode, anchors=anchors)


def reference_reach(grid: PaddedGrid, c: Chair, mask: int) -> int:
    """The cells of grid that see a cell of mask: the OR of mask shifted by
    the flat offset of every chair point, one point at a time."""
    out = 0
    for e in enumerate_points(c):
        out |= mask >> sum(x * s for x, s in zip(e, grid.strides))
    return out


def reference_torus_tiling_oracle(lat: Lattice, c: Chair) -> Verdict:
    """The torus cover count on int64 arrays: every lattice point of (Z/m)^n,
    m the lattice volume, plus every chair point, reduced modulo m, adds one
    to its cell with np.add.at.  Anchor rows go in chunks so the largest
    temporary stays under 4 MiB; the m^n grid is charged to the budget, and
    grids past the int64-exact bounds raise BudgetExceeded."""
    if lat.n != c.n:
        raise DimensionMismatch(f"lattice is {lat.n}-dimensional, chair is {c.n}-dimensional")
    if not c.is_discrete:
        raise NotDiscrete("torus oracle needs a discrete chair")
    if not lat.is_integer:
        raise NonIntegerLattice("torus oracle needs an integer lattice")
    m = int(lat.volume)
    n = lat.n
    h = lat.canonical().entries
    cells = m**n
    check_budget(cells, None, "torus grid")
    if m > 2**25 or cells >= 2**62:
        raise BudgetExceeded(f"torus grid with m={m} exceeds exact int64 indexing")
    ranges = [m // h[i][i] for i in range(n)]
    copies = math.prod(ranges)
    basis = np.array(h, dtype=np.int64)
    chair_pts = np.array(enumerate_points(c), dtype=np.int64) % m
    strides = np.array([m ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    rows = max(1, (1 << 22) // (8 * n * len(chair_pts)))
    counts = np.zeros(cells, dtype=np.int64)
    for start in range(0, copies, rows):
        coeffs = np.stack(np.unravel_index(np.arange(start, min(start + rows, copies)), ranges), axis=1)
        anchors = (coeffs @ basis.T) % m
        flat = ((anchors[:, None, :] + chair_pts[None, :, :]) % m) @ strides
        np.add.at(counts, flat.ravel(), 1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        idx = int(bad[0])
        cell = []
        for i in range(n):
            cell.append(idx // int(strides[i]))
            idx %= int(strides[i])
        kind = "doubly covered" if counts[bad[0]] > 1 else "uncovered"
        return Verdict.failed(f"torus cell {kind}", tuple(cell), copies=copies, cells=cells)
    return Verdict.passed(copies=copies, cells=cells)


# Each normal form as its own smallest-pivot loop: the exact reference for
# exactmath.  U, D, V and the kernel rows fix coset labels and code-file
# contents, so the library must match these bit for bit, not just in lattice.


def reference_hermite_normal_form(m: IntMatrix) -> IntMatrix:
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
    for i in range(n):
        while True:
            piv = None
            for j in range(i, n):
                if h[j][i] != 0 and (piv is None or abs(h[j][i]) < abs(h[piv][i])):
                    piv = j
            if piv is None:  # columns i.. vanish on rows ..i: n-i vectors in n-i-1 dimensions
                raise SingularMatrix("hermite_normal_form needs det != 0")
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


def reference_smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith decomposition (U, D, V) with U @ m @ V == D.

    D is diagonal with positive entries d_1 | d_2 | ... ; U and V are
    unimodular.  Pivots are chosen by smallest nonzero absolute value to
    bound intermediate growth; an all-zero remaining block proves m singular.
    """
    if m.rows != m.cols:
        raise NonSquare(f"smith_normal_form needs a square matrix, got {m.rows}x{m.cols}")
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
            if best is None:
                raise SingularMatrix("smith_normal_form needs det != 0")
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


def reference_integer_kernel(m: IntMatrix) -> IntMatrix:
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
