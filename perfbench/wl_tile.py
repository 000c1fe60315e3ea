"""Workload `tile`: verify chair tilings, splittings and round trips.

The stream is made of blocks of 81 chairs with a fixed make-up, so every seed
puts the same mix of work into a run: 20 chairs with n = 2, 24 with n = 3
(sides <= 9), 20 with n = 4 (sides <= 7), 14 with n = 5 (sides <= 5), two
rational chairs and one n = 6 chair whose sides are a permutation of
(4,5,5,6,6,7).  The n = 6 chair is 1.2% of the stream, so the p99 per-chair
time lands in it.  Block 0 also carries the rational chair 5/2,3/2 - 3/2,1/2
an n = 3 chair of volume 100 and an n = 4 chair of volume 31, as its first
two chairs.  Their torus grids (10^6 and 923,521 cells) are the largest the
default budget admits, so the oracle's int64 arrays for them set the peak
memory in every run.

Each block adds two negative controls: a chair lattice with one entry moved by
one so that its volume drops below the chair's.  Such a lattice cannot pack
the chair, so verify_tiling must reject it, and its witness is confirmed as a
real overlap by a point-set check made here.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from common import (RunResult, chair_generator, chair_points, determinant, median, peak_rss_mb,
                    percentile, solve_rows)

BLOCK = ((2, 9, 20), (3, 9, 24), (4, 7, 20), (5, 5, 14))  # (n, max side, chairs per block)
TAIL_SIDES = (4, 5, 5, 6, 6, 7)
RATIONAL_PER_BLOCK = 2
CONTROLS_PER_BLOCK = 2
BLOCKS = 64  # generated up front; a run that outlasts them starts again at block 0
# Peak RSS keeps rising by a few MB per n = 6 chair as the heap fragments, so it
# is read after a fixed amount of work; a faster library then does not show
# more memory just because it got further in the same time.
RSS_AFTER_BLOCKS = 2
FIXED_RATIONAL = (("5/2", "3/2"), ("3/2", "1/2"))
# (n, volume, max side): volume**n is at most the default budget of 10**6 cells,
# and volume**n * n is the largest int64 array the torus oracle builds
ORACLE_CHAIRS = ((3, 100, 9), (4, 31, 4))


def _random_chair(rng: random.Random, n: int, max_side: int) -> tuple[tuple, tuple]:
    sides = tuple(rng.randint(2, max_side) for _ in range(n))
    return sides, tuple(rng.randint(1, l - 1) for l in sides)


def _rational_chair(rng: random.Random) -> tuple[tuple, tuple]:
    n = rng.choice((2, 3))
    d = rng.choice((2, 3))
    while True:
        a = [rng.randint(d + 1, 3 * d) for _ in range(n)]
        b = [rng.randint(1, x - 1) for x in a]
        if any((x % d) or (y % d) for x, y in zip(a, b)):
            return (tuple(str(Fraction(x, d)) for x in a), tuple(str(Fraction(y, d)) for y in b))


def _control(rng: random.Random, sides, notch) -> list[list[int]] | None:
    """A perturbed chair lattice whose volume is below the chair's, or None."""
    vol = math.prod(sides) - math.prod(notch)
    n = len(sides)
    cells = [(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(cells)
    for i, j in cells:
        for delta in rng.sample((-1, 1), 2):
            rows = chair_generator(sides, notch)
            rows[i][j] += delta
            det = abs(determinant(rows))
            if 0 < det < vol:
                return rows
    return None


def _chairs_of_volume(n: int, vol: int, max_side: int) -> list[tuple[tuple, tuple]]:
    out = []
    for sides in itertools.product(range(2, max_side + 1), repeat=n):
        for notch in itertools.product(*[range(1, l) for l in sides]):
            if math.prod(sides) - math.prod(notch) == vol:
                out.append((sides, notch))
    return out


def setup(seed: int) -> dict:
    rng = random.Random(seed)
    blocks = []
    for b in range(BLOCKS):
        chairs = []
        for n, max_side, count in BLOCK:
            chairs += [("int", *_random_chair(rng, n, max_side)) for _ in range(count)]
        tail = list(TAIL_SIDES)
        rng.shuffle(tail)
        chairs.append(("int", tuple(tail), tuple(rng.randint(1, l - 1) for l in tail)))
        chairs += [("rat", *_rational_chair(rng)) for _ in range(RATIONAL_PER_BLOCK)]
        if b == 0:
            chairs[-1] = ("rat", *FIXED_RATIONAL)
        rng.shuffle(chairs)
        if b == 0:
            # first, while the heap is still small, so their arrays set the peak
            for k, (n, vol, max_side) in enumerate(ORACLE_CHAIRS):
                chairs[k] = ("int", *rng.choice(_chairs_of_volume(n, vol, max_side)))
        controls = []
        small = [c for c in chairs if c[0] == "int" and len(c[1]) <= 4]
        while len(controls) < CONTROLS_PER_BLOCK:
            _, sides, notch = rng.choice(small)
            rows = _control(rng, sides, notch)
            if rows is not None:
                controls.append((sides, notch, rows))
        blocks.append((chairs, controls))
    return {"blocks": blocks}


def _hypothesis_holds(sides, notch) -> bool:
    vol = math.prod(sides) - math.prod(notch)
    return sum(1 for k in notch if math.gcd(k, vol) != 1) <= 1


def _confirm_overlap(sides, notch, rows, witness) -> bool:
    """Independent check that the witness shows two overlapping chair copies."""
    if witness is None:
        return False
    if all(isinstance(w, tuple) for w in witness):  # a pair of chair points in one coset
        p, q = witness
        shift = tuple(int(a) - int(b) for a, b in zip(p, q))
    else:
        shift = tuple(Fraction(w) for w in witness)
    if not any(shift) or any(Fraction(x).denominator != 1 for x in shift):
        return False
    coeffs = solve_rows(rows, shift)
    if coeffs is None or any(c.denominator != 1 for c in coeffs):
        return False
    pts = set(chair_points(sides, notch))
    return any(tuple(a + int(s) for a, s in zip(p, shift)) in pts for p in pts)


class Tile:
    name = "tile"

    def __init__(self, lib):
        self.lib = lib

    def run(self, state: dict, seconds: float) -> RunResult:
        from chaircodes.chair import Chair
        from chaircodes.errors import HypothesisViolated

        L = self.lib
        budget = L.budget.resolve_budget()
        res = RunResult()
        direct = dict.fromkeys(("lattice.chair_lattice", "lattice.verify_tiling",
                                "splitting.general_chair_splitting", "splitting.verify_splitting",
                                "splitting.splitting_to_lattice", "splitting.lattice_to_splitting",
                                "lattice.torus_tiling_oracle", "lattice.Lattice.__init__"), 0)
        torus_cells = permuted = 0
        chairs_done = 0
        clock = time.perf_counter
        t_end = clock() + seconds
        b = 0
        while clock() < t_end:
            chairs, controls = state["blocks"][b % len(state["blocks"])]
            block_start = clock()
            worst = 0.0
            complete = True
            for kind, sides, notch in chairs:
                if clock() >= t_end:
                    complete = False
                    break
                res.attempted += 1
                c = Chair(sides, notch)
                discrete = kind == "int"
                t0 = clock()
                lat = L.lattice.chair_lattice(c)
                v = L.lattice.verify_tiling(lat, c)
                direct["lattice.chair_lattice"] += 1
                direct["lattice.verify_tiling"] += 1
                errors = []
                if not v.ok:
                    errors.append(f"tiling rejected: {v.reason}")
                if discrete:
                    vol = math.prod(sides) - math.prod(notch)
                    direct["splitting.general_chair_splitting"] += 1
                    try:
                        sp = L.splitting.general_chair_splitting(c)
                    except HypothesisViolated:
                        sp = None
                    if (sp is not None) != _hypothesis_holds(sides, notch):
                        errors.append("splitting hypothesis verdict is wrong")
                    if sp is not None:
                        permuted += sp.permutation != tuple(range(len(sides)))
                        if not L.splitting.verify_splitting(c, sp).ok:
                            errors.append("splitting rejected")
                        sl = L.splitting.splitting_to_lattice(sp)
                        # a permuted splitting gives a different valid tiling, so
                        # the check is verify_tiling, not equality with chair_lattice
                        if not L.lattice.verify_tiling(sl, c).ok:
                            errors.append("splitting lattice rejected")
                        direct["splitting.verify_splitting"] += 1
                        direct["splitting.splitting_to_lattice"] += 1
                        direct["lattice.verify_tiling"] += 1
                    rt = L.splitting.lattice_to_splitting(lat)
                    if not L.splitting.verify_splitting(c, rt).ok:
                        errors.append("round-trip splitting rejected")
                    if not L.splitting.splitting_to_lattice(rt) == lat:
                        errors.append("round trip changed the lattice")
                    direct["splitting.lattice_to_splitting"] += 1
                    direct["splitting.verify_splitting"] += 1
                    direct["splitting.splitting_to_lattice"] += 1
                    if vol ** len(sides) <= budget:
                        direct["lattice.torus_tiling_oracle"] += 1
                        torus_cells += vol ** len(sides)
                        if not L.lattice.torus_tiling_oracle(lat, c).ok:
                            errors.append("torus oracle disagrees")
                dt = clock() - t0
                worst = max(worst, dt)
                res.timed(t0, dt)
                res.rate_windows.append((t0, dt))
                chairs_done += 1
                if errors:
                    res.fail(f"chair {sides}-{notch}: {'; '.join(errors)}")
            if complete:
                for sides, notch, rows in controls:
                    res.attempted += 1
                    direct["lattice.Lattice.__init__"] += 1
                    direct["lattice.verify_tiling"] += 1
                    v = L.lattice.verify_tiling(L.lattice.Lattice(rows), Chair(sides, notch))
                    if v.ok or not _confirm_overlap(sides, notch, rows, v.witness):
                        res.fail(f"negative control {rows} for {sides}-{notch} not rejected "
                                 f"with a real overlap (ok={v.ok}, witness={v.witness})")
                res.passes.append((block_start, clock(), worst))
                if len(res.passes) == RSS_AFTER_BLOCKS:
                    res.peak_rss_mb = peak_rss_mb()
            b += 1
        res.direct = direct
        res.expected = {"lattice.torus_tiling_oracle.cells": torus_cells}
        times_ms = [t * 1000 for t in res.op_times]
        res.rate_work = chairs_done
        res.named = {
            "tile.chairs_per_s": (res.ops_per_s, "1/s"),
            "tile.chair_p50_ms": (median(times_ms), "ms"),
            "tile.chair_p99_ms": (percentile(times_ms, 99), "ms"),
        }
        res.info = {"chairs": chairs_done, "blocks_complete": len(res.passes),
                    "negative_controls": CONTROLS_PER_BLOCK * len(res.passes),
                    "permuted_splittings": permuted,
                    "p99_samples_beyond": round(chairs_done * 0.01, 1)}
        return res
