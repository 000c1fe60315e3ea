"""Workload `search`: the constructive nonexistence proof and its Found cases.

Each pass runs exhaustive_perfect_search on five fixed parameter sets, in an
order shuffled by the seed.  Every answer is pinned from the seed commit:
status, candidates examined, number found and a digest of the found bases.
Each found basis is also checked here, without the library, to be a perfect
code: the sphere's points reduce to distinct residues modulo its triangular
basis, and there are as many as the index.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

from common import RunResult, median, pass_fits, peak_rss_mb

# (n, t, ell) -> (status, examined, found, sha256 prefix of the found bases)
PINS = {
    (4, 2, 2): ("NoPerfectCode", 58560, 0, "4f53cda18c2baa0c"),
    (4, 3, 1): ("Found", 6240, 6, "5e5e335688d58b7c"),
    (5, 1, 1): ("Found", 3751, 60, "7e7419c1413eb729"),
    (4, 1, 2): ("Found", 1210, 24, "e109258915d19a65"),
    (3, 2, 4): ("Found", 3783, 2, "d710208cbdc2f599"),
}
PASSES = 64  # orders generated up front; the run stops long before


def setup(seed: int) -> dict:
    rng = random.Random(seed)
    orders = []
    for _ in range(PASSES):
        order = list(PINS)
        rng.shuffle(order)
        orders.append(order)
    return {"orders": orders}


def sphere(n: int, t: int, ell: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(ell + 1), repeat=n)
            if sum(1 for x in e if x) <= t]


def is_perfect(h: list[list[int]], points) -> bool:
    """Whether the points hit each coset of the lattice spanned by h's columns once."""
    n = len(h)
    index = 1
    for i in range(n):
        index *= h[i][i]
    seen = set()
    for p in points:
        r = list(p)
        for i in range(n):
            c = r[i] // h[i][i]
            if c:
                for k in range(i, n):
                    r[k] -= c * h[k][i]
        seen.add(tuple(r))
    return len(seen) == len(points) == index


class Search:
    name = "search"

    def __init__(self, lib):
        self.lib = lib

    def run(self, state: dict, seconds: float) -> RunResult:
        codes = self.lib.codes
        res = RunResult()
        clock = time.perf_counter
        t_end = clock() + seconds
        examined = found = calls = 0
        for order in state["orders"]:
            if not pass_fits(res, t_end):
                break
            pass_start = clock()
            worst = 0.0
            for params in order:
                res.attempted += 1
                t0 = clock()
                verdict = codes.exhaustive_perfect_search(*params)
                dt = clock() - t0
                calls += 1
                worst = max(worst, dt)
                res.timed(t0, dt)
                res.rate_windows.append((t0, dt))
                examined += verdict.examined
                found += len(verdict.found)
                bases = [m.entries for m in verdict.found]
                digest = hashlib.sha256(json.dumps(bases).encode()).hexdigest()[:16]
                got = (verdict.status, verdict.examined, len(verdict.found), digest)
                if got != PINS[params]:
                    res.fail(f"search {params}: got {got}, pinned {PINS[params]}")
                elif bases:
                    pts = sphere(*params)
                    if not all(is_perfect([list(r) for r in b], pts) for b in bases):
                        res.fail(f"search {params}: a found basis is not a perfect code")
            res.passes.append((pass_start, clock(), worst))
            if res.peak_rss_mb is None:
                res.peak_rss_mb = peak_rss_mb()  # after a fixed amount of work
        res.direct = {"codes.exhaustive_perfect_search": calls}
        res.expected = {"codes.exhaustive_perfect_search.examined": examined,
                        "codes.exhaustive_perfect_search.found": found}
        verdict_s = median(res.pass_times)
        res.rate_work = examined
        res.named = {
            "search.verdict_s": (verdict_s, "s"),
            "search.candidates_per_s": (res.ops_per_s, "1/s"),
        }
        res.info = {"passes": len(res.passes), "searches": calls,
                    "candidates_examined": examined, "found": found}
        return res
