"""Command-line front end: construct, verify, decode, search, wom.

Commands compute and main reports: each cmd_* returns its report and exit
code, and main times it, adds the command's name and timings_ms, and prints
it.  Reports are JSON on stdout with every number rendered as a decimal
string, so arbitrary-precision values survive any consumer.  Errors go to
stderr as JSON too.  Exit codes: 0 ok, 2 bad input, 3 code not perfect,
4 budget exceeded, 5 verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import codes, wom
from .budget import parse_int, resolve_budget
from .chair import Chair, as_exact, volume
from .errors import (
    BadParameters,
    BudgetExceeded,
    ChairCodesError,
    HypothesisViolated,
    NotATiling,
    NotDiscrete,
    NotPerfect,
)
from .lattice import Lattice, SplittingSequence, chair_lattice, torus_tiling_oracle, verify_tiling
from .splitting import general_chair_splitting, verify_splitting

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_PERFECT = 3
EXIT_BUDGET = 4
EXIT_VERIFICATION = 5

# every other error that main catches is bad input
_EXITS = {BudgetExceeded: EXIT_BUDGET, NotPerfect: EXIT_NOT_PERFECT, NotATiling: EXIT_VERIFICATION}


def _parse_vector(text: str) -> tuple[Fraction | int, ...]:
    try:
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if not parts:
            raise ValueError("empty vector")
        return tuple(as_exact(p) for p in parts)
    except ValueError as exc:
        raise BadParameters(f"cannot parse vector {text!r}: {exc}") from None


def _parse_int_vector(text: str) -> tuple[int, ...]:
    return tuple(parse_int(p.strip(), "a vector entry") for p in text.split(",") if p.strip())


def _chair_from_args(args: argparse.Namespace) -> Chair:
    return Chair(_parse_vector(args.l), _parse_vector(args.k))


def _error_exit(exc: BaseException) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    for cls, code in _EXITS.items():
        if isinstance(exc, cls):
            return code
    return EXIT_INPUT


def cmd_construct(args: argparse.Namespace) -> tuple[dict | None, int]:
    c = _chair_from_args(args)
    seq: SplittingSequence | None = None
    if args.method in ("auto", "splitting"):
        try:
            seq = general_chair_splitting(c)
        except (HypothesisViolated, NotDiscrete):
            if args.method == "splitting":
                raise
    lat = chair_lattice(c)
    verdict = verify_tiling(lat, c)
    report = {
        "parameters": {**c.to_json_dict(), "method": args.method},
        "artifacts": {
            "generator": lat.to_json_dict()["generator"],
            "volume": str(volume(c)),
            "splitting": seq.to_json_dict() if seq is not None else None,
        },
        "verdicts": {"tiling": verdict.to_json_dict()},
    }
    if seq is not None:
        report["verdicts"]["splitting"] = verify_splitting(c, seq).to_json_dict()
    if args.code_out:
        if any(l - k != 1 for l, k in zip(c.sides, c.notch)):
            raise BadParameters("--code-out needs an error-sphere chair: L = K + 1 componentwise")
        code = codes.perfect_code(c.n, c.int_notch())
        with open(args.code_out, "w") as fh:
            json.dump(code.to_json_dict(), fh, sort_keys=True, indent=2)
        report["artifacts"]["code_file"] = args.code_out
    if args.out == "csv":  # rows read off the report's artifacts
        art = report["artifacts"]
        lines = [f"volume,{art['volume']}"] + ["generator," + ",".join(row) for row in art["generator"]]
        if art["splitting"] is not None:
            lines += [f"m,{art['splitting']['m']}", "beta," + ",".join(art["splitting"]["beta"])]
        lines.append(f"tiling,{'ok' if verdict.ok else 'fail'}")
        print("\n".join(lines))
        return None, EXIT_OK
    return report, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[dict | None, int]:
    c = _chair_from_args(args)
    verdicts: dict = {}
    if args.m is not None or args.beta is not None:
        if args.m is None or args.beta is None:
            raise BadParameters("--m and --beta must be given together")
        if args.generator or args.torus:
            raise BadParameters("--generator and --torus check a lattice, not an --m/--beta splitting")
        beta = _parse_int_vector(args.beta)
        if len(beta) != c.n:
            raise BadParameters(f"--beta has {len(beta)} residues, chair is {c.n}-dimensional")
        seq = SplittingSequence.cyclic(parse_int(args.m, "--m"), beta)
        verdicts["splitting"] = verify_splitting(c, seq)
        lat = None
    else:
        if args.generator:
            with open(args.generator) as fh:
                lat = Lattice.from_json_dict(json.load(fh))
        else:
            lat = chair_lattice(c)
        verdicts["tiling"] = verify_tiling(lat, c)
        if args.torus:
            verdicts["torus"] = torus_tiling_oracle(lat, c)
    report = {
        "parameters": c.to_json_dict(),
        "artifacts": {"generator": lat.to_json_dict()["generator"] if lat else None},
        "verdicts": {k: v.to_json_dict() for k, v in verdicts.items()},
    }
    return report, EXIT_OK if all(v.ok for v in verdicts.values()) else EXIT_VERIFICATION


def cmd_decode(args: argparse.Namespace) -> tuple[dict | None, int]:
    with open(args.code) as fh:
        code = codes.LatticeCode.from_json_dict(json.load(fh))
    received = _parse_int_vector(args.received)
    if len(received) != code.sphere.n:
        raise BadParameters(f"received word has {len(received)} cells, code has {code.sphere.n}")
    codeword, error = codes.decode(code, received)
    report = {
        "parameters": {"code": args.code, "received": [str(x) for x in received]},
        "artifacts": {"codeword": [str(x) for x in codeword], "error": [str(x) for x in error]},
        "verdicts": {},
    }
    return report, EXIT_OK


def cmd_search(args: argparse.Namespace) -> tuple[dict | None, int]:
    n, t, ell = parse_int(args.n, "--n"), parse_int(args.t, "--t"), parse_int(args.ell, "--ell")
    budget = resolve_budget(args.budget)
    if args.mode == "divisibility":
        if t != n - 2:
            raise BadParameters(f"divisibility test covers t = n-2 only; got t={t}, n={n}")
        verdict = codes.nonexistence_divisibility_check(n, ell)
    else:
        verdict = codes.exhaustive_perfect_search(n, t, ell, budget)
    report = {
        "parameters": {"n": str(n), "t": str(t), "ell": str(ell),
                       "mode": args.mode, "budget": str(budget)},
        "artifacts": {},
        "verdicts": {"search": verdict.to_json_dict()},
    }
    return report, EXIT_OK


def cmd_wom(args: argparse.Namespace) -> tuple[dict | None, int]:
    q = parse_int(args.q, "--q")
    if q < 1:
        raise BadParameters(f"need q >= 1, got {q}")
    c = _chair_from_args(args)
    lat = chair_lattice(c)
    coloring = wom.build_coloring(lat, c, q)
    out_path = args.output or ("coloring.csv" if args.out == "csv" else "coloring.bin")
    if args.out == "csv":
        with open(out_path, "w") as fh:
            rows = wom.write_csv(coloring, fh)
    else:
        with open(out_path, "wb") as fh:
            rows = wom.write_binary(coloring, fh)
    report = {
        "parameters": {**c.to_json_dict(), "q": str(q), "out": args.out},
        "artifacts": {"colors": str(coloring.sigma), "cells": str(rows), "file": out_path},
        "verdicts": {},
    }
    if args.check:
        verdict = wom.check_write_guarantee(coloring, c)
        report["verdicts"]["write_guarantee"] = verdict.to_json_dict()
        if not verdict.ok:
            return report, EXIT_VERIFICATION
    return report, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaircodes",
        description="Chair tilings of Z^n, splitting sequences, perfect "
        "limited-magnitude asymmetric codes, and WOM colorings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build the tiling lattice and splitting for a chair")
    p.add_argument("--l", required=True, help="comma-separated box sides (ints or fractions)")
    p.add_argument("--k", required=True, help="comma-separated notch sides")
    p.add_argument("--method", choices=["auto", "splitting", "lattice"], default="auto")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--code-out", help="also write the perfect-code JSON (needs L = K + 1)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a tiling or a splitting against a chair")
    p.add_argument("--l", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--generator", help="lattice JSON file; default is the chair lattice")
    p.add_argument("--m", help="splitting modulus (with --beta)")
    p.add_argument("--beta", help="comma-separated splitting residues (with --m)")
    p.add_argument("--torus", action="store_true", help="also run the torus oracle")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decode", help="decode a received word with a perfect code")
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--received", required=True, help="comma-separated received word")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("search", help="nonexistence tests for perfect codes")
    p.add_argument("--n", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--ell", required=True)
    p.add_argument("--mode", choices=["divisibility", "exhaustive"], default="divisibility")
    p.add_argument("--budget")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("wom", help="emit the write-once-memory coloring of a chair tiling")
    p.add_argument("--l", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--q", required=True, help="levels per cell")
    p.add_argument("--out", choices=["csv", "bin"], default="csv")
    p.add_argument("--output", help="output file (default coloring.csv / coloring.bin)")
    p.add_argument("--check", action="store_true", help="also verify the write guarantee")
    p.set_defaults(func=cmd_wom)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        report, rc = args.func(args)
        if report is not None:
            report["command"] = args.subcommand
            report["timings_ms"] = {"total": str(int((time.perf_counter() - start) * 1000))}
            print(json.dumps(report, sort_keys=True, indent=2))
        return rc
    except (ChairCodesError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _error_exit(exc)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
