"""Workload `memory`: reads (syndrome decoding) and writes (WOM colorings).

Reads: for each magnitude vector a perfect code is built with perfect_code,
then a seeded stream of words x + e is decoded, with x a lattice point and e
an error of the sphere.  decode_words_per_s is timed from the perfect_code
call to the last decode, so work moved into building the code still shows.

Writes: each instance of a fixed list of (chair, q) is colored with
build_coloring, serialized with write_binary into memory and checked with
check_write_guarantee.  The list mixes torus-mode grids (q*e_i in the lattice)
and interior-mode grids.  Besides the library's verdict, the mode and anchor
count are derived here, and seeded anchors are re-checked on the serialized
bytes: the cells a write can reach from an anchor carry every color once.
"""

from __future__ import annotations

import io
import itertools
import math
import random
import struct
import time
from array import array

from common import RunResult, chair_generator, chair_points, pass_fits, peak_rss_mb, solve_rows

CODES = ((1, 1, 1), (2, 2, 2), (3, 2, 1, 1), (2, 2, 2, 2), (1, 1, 1, 1, 1))
WORDS_PER_CODE = 20_000
COEFF_RANGE = 20

# (sides, notch, q); each instance's mode is derived in _expected_mode.  An odd
# number of instances puts the median instance time on one instance.
WOM_CASES = (
    ((2, 2, 2), (1, 1, 1), 35),
    ((4, 4, 4), (3, 3, 3), 38),
    ((3, 3, 3, 3), (2, 2, 2, 2), 10),
    ((5, 4), (2, 3), 28),
    ((4, 3), (2, 2), 24),
)
SPOT_ANCHORS = 16
PASSES = 64
MAGIC = b"WOMCOLR1"


def _sphere(mags) -> list[tuple[int, ...]]:
    # t = n-1: every cell raised by at most its magnitude, at least one cell untouched
    return [e for e in itertools.product(*[range(m + 1) for m in mags]) if 0 in e]


def _expected_mode(sides, notch, q) -> tuple[str, int]:
    rows = chair_generator(sides, notch)
    n = len(sides)
    torus = all(all(c.denominator == 1 for c in solve_rows(rows, [q * (i == j) for j in range(n)]))
                for i in range(n))
    if torus:
        return "torus", q ** n
    if any(l > q for l in sides):
        return "interior", 0
    return "interior", math.prod(q - l + 1 for l in sides)


def setup(seed: int) -> dict:
    from chaircodes import codes

    rng = random.Random(seed)
    streams = []
    for mags in CODES:
        gen = codes.perfect_code(len(mags), mags).lattice.generator
        n = len(mags)
        coeffs = rng.choices(range(-COEFF_RANGE, COEFF_RANGE + 1), k=n * WORDS_PER_CODE)
        cols = list(zip(*gen))
        words = []
        for w, e in enumerate(rng.choices(_sphere(mags), k=WORDS_PER_CODE)):
            y = coeffs[w * n:(w + 1) * n]
            x = tuple(sum(a * b for a, b in zip(y, col)) for col in cols)
            words.append((tuple(a + b for a, b in zip(x, e)), (x, e)))
        streams.append((mags, words))
    cases = []
    for sides, notch, q in WOM_CASES:
        mode, anchors = _expected_mode(sides, notch, q)
        cases.append((sides, notch, q, mode, anchors))
    spots = [[[rng.randrange(q) for _ in sides] for _ in range(SPOT_ANCHORS)]
             for sides, notch, q in WOM_CASES]
    orders = []
    for _ in range(PASSES):
        order = list(range(len(cases)))
        rng.shuffle(order)
        orders.append(order)
    return {"streams": streams, "cases": cases, "spots": spots, "orders": orders}


def _spot_check(blob: bytes, sides, notch, q, mode, anchors) -> bool:
    colors = array("H")
    colors.frombytes(blob[len(MAGIC):])
    n = len(sides)
    reps = chair_points(sides, notch)
    vol = len(reps)
    for p in anchors:
        if mode == "interior":
            p = [max(a, l - 1) for a, l in zip(p, sides)]
        seen = set()
        for e in reps:
            idx = 0
            for a, x in zip(p, e):
                idx = idx * q + (a - x) % q
            seen.add(colors[idx])
        if len(seen) != vol:
            return False
    return len(colors) == q ** n


class Memory:
    name = "memory"

    def __init__(self, lib):
        self.lib = lib

    def run(self, state: dict, seconds: float) -> RunResult:
        from chaircodes.chair import Chair

        L = self.lib
        res = RunResult()
        clock = time.perf_counter
        t_end = clock() + seconds
        words_done = codes_built = 0
        cells = anchors = nbytes = colorings = 0
        for order in state["orders"]:
            if not pass_fits(res, t_end):
                break
            for mags, words in state["streams"]:
                t0 = clock()
                code = L.codes.perfect_code(len(mags), mags)
                decode = L.codes.decode
                bad = 0
                for received, expect in words:
                    if decode(code, received) != expect:
                        bad += 1
                res.rate_windows.append((t0, clock() - t0))
                codes_built += 1
                words_done += len(words)
                res.attempted += len(words)
                if bad:
                    res.failed += bad
                    res.failures.append(f"code {mags}: {bad} words decoded wrongly")
            pass_start = clock()
            worst = 0.0
            for i in order:
                sides, notch, q, mode, expected_anchors = state["cases"][i]
                res.attempted += 1
                c = Chair(sides, notch)
                t0 = clock()
                col = L.wom.build_coloring(L.lattice.chair_lattice(c), c, q)
                buf = io.BytesIO()
                L.wom.write_binary(col, buf)
                verdict = L.wom.check_write_guarantee(col, c)
                dt = clock() - t0
                worst = max(worst, dt)
                res.timed(t0, dt)
                blob = buf.getvalue()
                detail = dict(verdict.detail)
                colorings += 1
                cells += q ** len(sides)
                anchors += expected_anchors
                nbytes += len(blob)
                ok = (verdict.ok and detail.get("mode") == mode
                      and int(detail.get("anchors", -1)) == expected_anchors
                      and blob == MAGIC + struct.pack(f"<{len(col.colors)}H", *col.colors)
                      and len(col.colors) == q ** len(sides) and col.colors[0] == 0
                      and col.sigma == len(chair_points(sides, notch))
                      and (expected_anchors == 0
                           or _spot_check(blob, sides, notch, q, mode, state["spots"][i])))
                if not ok:
                    res.fail(f"wom {sides}-{notch} q={q}: verdict {verdict.to_json_dict()}, "
                             f"expected mode {mode} with {expected_anchors} anchors")
            res.passes.append((pass_start, clock(), worst))
            if res.peak_rss_mb is None:
                res.peak_rss_mb = peak_rss_mb()  # after a fixed amount of work
        wom_s = sum(res.pass_times)
        res.direct = {"codes.perfect_code": codes_built, "wom.build_coloring": colorings,
                      "wom.write_binary": colorings, "wom.check_write_guarantee": colorings}
        res.expected = {"codes.decode.calls": words_done, "wom.build_coloring.cells": cells,
                        "wom.check_write_guarantee.anchors": anchors, "wom.write_binary.bytes": nbytes}
        res.rate_work = words_done
        res.named = {
            "memory.decode_words_per_s": (res.ops_per_s, "1/s"),
            "memory.wom_cells_per_s": (cells / wom_s, "1/s"),
        }
        res.info = {"passes": len(res.passes), "codes_built": codes_built,
                    "words_decoded": words_done, "wom_instances": colorings, "wom_cells": cells}
        return res
