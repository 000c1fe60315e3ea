"""chaircodes benchmark runner: one closed-loop caller, no threads, no pools.

Usage:
  python3 perfbench/run.py --workload {tile,search,memory,cli} --seed N \
      --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  All
inputs come from --seed.  One operation starts only after the previous one
has finished; CLI subprocesses run one at a time.  Every answer is checked;
a wrong one counts as a failed operation and makes the exit code 1.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload untraced and then traced for --seconds each, and prints the
per-layer metrics, with the tracing overhead as their difference.  The last
stdout line is the result object; the line before it is a report with the
environment, the metrics under their workload-specific names, and counts.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

import common  # noqa: E402  (the script's directory is on sys.path)
from common import ROOT, SRC, WORK, median, peak_rss_mb, run_child  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 5
SPANS_FILE = "spans-{workload}-seed{seed}.jsonl"


def load_library():
    """Import chaircodes from ./src of this checkout, never from elsewhere."""
    if not (SRC / "chaircodes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'chaircodes'}; run from a checkout root")
    common.clean_environment()
    sys.path.insert(1, str(SRC))
    import chaircodes
    from chaircodes import budget, codes, lattice, splitting, wom

    if Path(chaircodes.__file__).resolve().parent != (SRC / "chaircodes").resolve():
        sys.exit(f"perfbench: imported chaircodes from {chaircodes.__file__}, not from {SRC}")
    return argparse.Namespace(budget=budget, codes=codes, lattice=lattice,
                              splitting=splitting, wom=wom)


def workloads():
    import wl_cli
    import wl_memory
    import wl_search
    import wl_tile

    return {
        "tile": (wl_tile.setup, wl_tile.Tile),
        "search": (wl_search.setup, wl_search.Search),
        "memory": (wl_memory.setup, wl_memory.Memory),
        "cli": (wl_cli.setup, wl_cli.Cli),
    }


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_probe_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only import and build the inputs."""
    args = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only", "1"]
    times = []
    for i in range(SETUP_PROBES):
        rc, wall, _ = run_child(args, WORK / "setup.out", WORK / "setup.err")
        if rc != 0:
            sys.exit(f"perfbench: setup probe exited {rc}: {(WORK / 'setup.err').read_text()[-2000:]}")
        times.append(wall)
    return times


def import_probe_ms() -> float:
    args = [sys.executable, "-c", "import chaircodes.cli"]
    walls = []
    for _ in range(IMPORT_PROBES):
        rc, wall, _ = run_child(args, WORK / "import.out", WORK / "import.err")
        if rc != 0:
            sys.exit(f"perfbench: importing chaircodes.cli failed: {(WORK / 'import.err').read_text()}")
        walls.append(wall * 1000)
    return median(walls)


def run_workload(runner, state, seconds, tracer=None):
    if tracer is None:
        return runner.run(state, seconds)
    if runner.name == "cli":  # the children trace themselves
        return runner.run(state, seconds, tracer)
    tracer.install()
    try:
        res = runner.run(state, seconds)
        missed = tracer.missed_bindings()
    finally:
        tracer.uninstall()
    if missed:
        res.fail(f"tracer bindings replaced during the run: {missed}")
    return res


def end_to_end(res, probe) -> dict:
    """The pass and operation metrics at the reference speed of the machine.

    Each pass is corrected by the probe samples taken during it, and each
    operation and each stretch of work behind the rate by those taken during
    it, or else during its pass.  A probe that never ran leaves the values as
    measured.
    """
    slow = probe.slowdown
    starts = [start for start, _, _ in res.passes]
    factors = [probe.slowdown_between(start, end, slow) for start, end, _ in res.passes]

    def op_factor(start: float, seconds: float) -> float:
        i = bisect.bisect_right(starts, start) - 1
        around = factors[i] if i >= 0 and start <= res.passes[i][1] else slow
        return probe.slowdown_between(start, start + seconds, around)

    op_ms = [t * 1000 / op_factor(s, t) for s, t in zip(res.op_starts, res.op_times)]
    rate_s = sum(t / op_factor(s, t) for s, t in res.rate_windows)
    return {
        "ops_per_s": res.rate_work / rate_s,
        "op_p50_ms": median(op_ms),
        "pass_s": median([(end - start) / f for (start, end, _), f in zip(res.passes, factors)]),
        "op_tail_ms": median([worst / f for (_, _, worst), f in zip(res.passes, factors)]) * 1000,
    }


def reconcile(tracer, res) -> list[str]:
    """Traced counts must equal what the workload itself did and predicted."""
    problems = []
    for name, count in res.direct.items():
        got = tracer.root_calls.get(name, 0)
        if got != count:
            problems.append(f"{name}: {got} traced top-level calls, workload made {count}")
    for key, want in res.expected.items():
        if key.endswith(".calls"):
            got = tracer.stats.get(key[:-len(".calls")], [0])[0]
        else:
            got = tracer.counts.get(key, 0)
        if got != want:
            problems.append(f"{key}: traced {got}, workload counted {want}")
    return problems


def layer_metrics(specs, tracer, extra) -> dict:
    durations = tracer.durations
    out = {}
    for spec in specs["per_layer"]:
        name = spec["name"]
        base, _, stat = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif stat == "calls":
            value = tracer.stats.get(base, [0])[0]
        elif stat == "self_s":
            value = tracer.stats.get(base, [0, 0.0, 0.0])[2]
        elif stat in ("p50_us", "p99_us"):
            d = durations.get(base)
            value = common.percentile(d, float(stat[1:3])) * 1e6 if d else 0.0
        elif stat == "candidates_per_s":
            busy = tracer.stats.get(base, [0, 0.0])[1]
            value = tracer.counts.get(base + ".examined", 0) / busy if busy else 0.0
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["tile", "search", "memory", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", type=int, choices=[0, 1], default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    lib = load_library()
    WORK.mkdir(exist_ok=True)
    setup, runner_cls = workloads()[args.workload]
    state = setup(args.seed)
    if args.setup_only:
        return 0
    env = common.environment_record(args.seed)
    own_setup_s = time.perf_counter() - _T0
    specs = metric_specs()
    runner = runner_cls(lib)

    probe = common.SpeedProbe()
    with probe if args.trace == 0 else contextlib.nullcontext():
        plain = run_workload(runner, state, args.seconds)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in plain.named.items()},
              "info": plain.info}
    attempted, failed, failures = plain.attempted, plain.failed, list(plain.failures)
    if args.trace == 0:
        setups = setup_probe_seconds(args.workload, args.seed)
        values = end_to_end(plain, probe)
        values["setup_s"] = median(setups)
        values["peak_rss_mb"] = plain.peak_rss_mb if plain.peak_rss_mb is not None else peak_rss_mb()
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs["end_to_end"]}
        report["setup"] = {"probes_s": setups, "this_process_s": own_setup_s}
        report["speed"] = {"slowdown": probe.slowdown, "samples": len(probe.samples),
                           "reference_s": probe.REFERENCE_S,
                           "measured": end_to_end(plain, common.SpeedProbe())}
    else:
        from tracer import Tracer

        tracer = Tracer()
        traced = run_workload(runner, state, args.seconds, tracer)
        attempted += traced.attempted
        failed += traced.failed
        failures += traced.failures
        problems = reconcile(tracer, traced)
        failed += len(problems)
        failures += problems
        untraced_s, traced_s = median(plain.pass_times), median(traced.pass_times)
        overhead_pct = (traced_s / untraced_s - 1) * 100
        spans_path = WORK / SPANS_FILE.format(workload=args.workload, seed=args.seed)
        spans = tracer.write_spans(spans_path, traced.child_spans)
        extra = {"trace.overhead_pct": overhead_pct, "trace.spans": spans}
        extra.update(plain.layer)
        if args.workload == "cli":
            extra["cli.import_ms"] = import_probe_ms()
        metrics = layer_metrics(specs, tracer, extra)
        report["tracing"] = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                             "overhead_pct": overhead_pct, "spans_file": str(spans_path.relative_to(ROOT)),
                             "spans_written": spans, "spans_dropped": tracer.dropped,
                             "reconciled": not problems}
    report["failures"] = failures
    common.dump_json_line(report)
    common.dump_json_line({"correct": failed == 0, "attempted": attempted,
                           "failed": failed, "metrics": metrics})
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
