"""Workload `cli`: a fixed script of `python -m chaircodes.cli` invocations.

This is the only workload that pays for process start-up and imports.  The
script is run one invocation at a time, in an order the seed shuffles for each
pass; the two decode invocations get seeded received words.  Every exit code
and every report, with its timings_ms removed, must equal the pins recorded
from the seed commit (cli_pins.json); the decode reports must return the
codeword and error the word was made from.

The report gives the median invocation time and, as cli.invoke_pNN_ms, the
highest percentile up to p90 that has at least ten samples beyond it.  The
end-to-end tail is the slowest invocation of each pass (wom --check), median
over passes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import time
from pathlib import Path

from common import ROOT, WORK, RunResult, chair_generator, median, pass_fits, percentile, run_child

PINS_FILE = Path(__file__).with_name("cli_pins.json")
DIR = ".perfbench_work/cli"
CODE = f"{DIR}/code.json"
CODE_MAGNITUDES = (2, 2, 2)
BAD_CHAIR = ((4, 4), (2, 3))
BAD_GENERATOR = f"{DIR}/bad_generator.json"
COLORING = f"{DIR}/coloring.bin"

SCRIPT = (
    ("construct_int", ["construct", "--l", "5,4,3", "--k", "3,3,1"]),
    ("construct_rational", ["construct", "--l", "5/2,3/2", "--k", "3/2,1/2"]),
    ("construct_code_out", ["construct", "--l", "3,3,3", "--k", "2,2,2",
                            "--code-out", f"{DIR}/construct_code.json"]),
    ("verify_torus", ["verify", "--l", "5,4,3", "--k", "3,3,1", "--torus"]),
    ("verify_torus_cube", ["verify", "--l", "4,4,4", "--k", "3,3,3", "--torus"]),
    ("verify_splitting", ["verify", "--l", "3,3,3", "--k", "2,2,2", "--m", "19", "--beta", "1,7,11"]),
    ("verify_bad_generator", ["verify", "--l", "4,4", "--k", "2,3", "--generator", BAD_GENERATOR]),
    ("decode_a", None),
    ("decode_b", None),
    ("search_divisibility", ["search", "--n", "5", "--t", "3", "--ell", "1"]),
    ("search_exhaustive", ["search", "--n", "4", "--t", "2", "--ell", "1", "--mode", "exhaustive"]),
    ("wom_check", ["wom", "--l", "2,2,2", "--k", "1,1,1", "--q", "35", "--check",
                   "--out", "bin", "--output", COLORING]),
)
PASSES = 64
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it
EXHAUSTIVE_EXAMINED = 1464  # candidates of search --n 4 --t 2 --ell 1 --mode exhaustive


def _bad_generator() -> list[list[int]]:
    # the chair lattice with one entry moved so its volume (6) is below the chair's (10)
    rows = chair_generator(*BAD_CHAIR)
    rows[1][1] -= 1
    return rows


def setup(seed: int) -> dict:
    from chaircodes import codes

    rng = random.Random(seed)
    out = ROOT / DIR
    out.mkdir(parents=True, exist_ok=True)
    code = codes.perfect_code(len(CODE_MAGNITUDES), CODE_MAGNITUDES)
    (ROOT / CODE).write_text(json.dumps(code.to_json_dict(), sort_keys=True, indent=2))
    (ROOT / BAD_GENERATOR).write_text(json.dumps({"generator": [[str(x) for x in r] for r in _bad_generator()]}))
    gen = code.lattice.generator
    n = len(CODE_MAGNITUDES)
    errors = [e for e in itertools.product(*[range(m + 1) for m in CODE_MAGNITUDES]) if 0 in e]
    passes = []
    for _ in range(PASSES):
        words = {}
        for name in ("decode_a", "decode_b"):
            y = [rng.randint(-20, 20) for _ in range(n)]
            x = tuple(sum(y[i] * gen[i][j] for i in range(n)) for j in range(n))
            e = rng.choice(errors)
            words[name] = (tuple(a + b for a, b in zip(x, e)), x, e)
        order = list(range(len(SCRIPT)))
        rng.shuffle(order)
        passes.append((order, words))
    pins = json.loads(PINS_FILE.read_text())
    for name, argv in SCRIPT:
        if argv is not None and pins[name]["argv"] != argv:
            raise RuntimeError(f"cli_pins.json was recorded for other arguments of {name}")
    return {"passes": passes, "pins": pins}


def normalized(stdout: bytes):
    """The report with its timings removed, or the raw text when it is not JSON."""
    text = stdout.decode()
    try:
        report = json.loads(text)
    except ValueError:
        return text, None
    handler = report.pop("timings_ms", {}).get("total")
    return report, (float(handler) if handler is not None else None)


def _decode_expected(received, x, e) -> dict:
    return {"artifacts": {"codeword": [str(v) for v in x], "error": [str(v) for v in e]},
            "command": "decode", "parameters": {"code": CODE, "received": [str(v) for v in received]},
            "verdicts": {}}


class Cli:
    name = "cli"

    def __init__(self, lib):
        self.lib = lib

    def invoke(self, argv: list[str], tag: str, trace_path: Path | None):
        out, err = WORK / f"cli_{tag}.out", WORK / f"cli_{tag}.err"
        if trace_path is None:
            args = [sys.executable, "-m", "chaircodes.cli", *argv]
        else:
            args = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(trace_path), *argv]
        rc, wall, rss = run_child(args, out, err)
        return rc, wall, rss, out.read_bytes()

    def run(self, state: dict, seconds: float, tracer=None) -> RunResult:
        res = RunResult()
        pins = state["pins"]
        clock = time.perf_counter
        t_end = clock() + seconds
        handler_ms, startup_ms, per_sub, per_name = [], [], {}, {}
        rss = 0.0
        expected_bytes = decodes = exhaustive = 0
        child_spans = []
        for order, words in state["passes"]:
            if not pass_fits(res, t_end):
                break
            pass_start = clock()
            worst = 0.0
            for i in order:
                name, argv = SCRIPT[i]
                if argv is None:
                    received, x, e = words[name]
                    # "=" keeps argparse from reading a leading minus sign as an option
                    argv = ["decode", "--code", CODE, "--received=" + ",".join(map(str, received))]
                    expect = {"rc": 0, "report": _decode_expected(received, x, e)}
                else:
                    expect = pins[name]
                trace_path = WORK / "cli_trace.json" if tracer is not None else None
                res.attempted += 1
                start = clock()
                rc, wall, child_rss, stdout = self.invoke(argv, name, trace_path)
                if tracer is not None:
                    data = json.loads(trace_path.read_text())
                    tracer.merge(data)
                    child_spans.append((len(child_spans) + 1, data["spans"]))
                rss = max(rss, child_rss)
                worst = max(worst, wall)
                res.timed(start, wall)
                res.rate_windows.append((start, wall))
                report, handler = normalized(stdout)
                per_sub.setdefault(argv[0], []).append(wall * 1000)
                per_name.setdefault(name, []).append(wall * 1000)
                if handler is not None:
                    handler_ms.append(handler)
                    startup_ms.append(wall * 1000 - handler)
                problems = []
                if rc != expect["rc"]:
                    problems.append(f"exit {rc}, pinned {expect['rc']}")
                if report != expect["report"]:
                    problems.append("report differs from the pin")
                if name == "wom_check":
                    blob = (ROOT / COLORING).read_bytes()
                    if hashlib.sha256(blob).hexdigest()[:16] != expect["file_sha256"]:
                        problems.append("coloring file differs from the pin")
                    expected_bytes += len(blob)
                decodes += name.startswith("decode")
                exhaustive += name == "search_exhaustive"
                if problems:
                    res.fail(f"cli {name}: {'; '.join(problems)}")
            res.passes.append((pass_start, clock(), worst))
        calls = len(res.op_times)
        ms = [t * 1000 for t in res.op_times]
        res.direct = {"cli.main": calls}
        res.expected = {"codes.decode.calls": decodes,
                        "codes.exhaustive_perfect_search.examined": EXHAUSTIVE_EXAMINED * exhaustive,
                        "wom.write_binary.bytes": expected_bytes}
        res.peak_rss_mb = rss
        res.rate_work = calls
        tail_pct = min(90, int(100 * (1 - TAIL_BEYOND / calls)))
        res.named = {"cli.invoke_p50_ms": (median(ms), "ms")}
        if tail_pct > 50:
            res.named[f"cli.invoke_p{tail_pct}_ms"] = (percentile(ms, tail_pct), "ms")
        res.layer = {
            "cli.handler_ms": median(handler_ms),
            "cli.startup_ms": median(startup_ms),
            **{f"cli.{sub}.wall_ms": median(v) for sub, v in per_sub.items()},
        }
        res.child_spans = child_spans
        res.info = {"passes": len(res.passes), "invocations": calls,
                    "invoke_p50_ms": {k: round(median(v), 1) for k, v in sorted(per_name.items())},
                    "tail_samples_beyond": round(calls * (100 - max(tail_pct, 50)) / 100, 1)}
        return res
