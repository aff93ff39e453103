"""Command-line front end: construct families, analyze spectra and transfer,
run fidelity sweeps, reproduce the classification searches, and run the full
verification battery.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import replace

from .constructions import (FAMILIES, BadFamilyParameters, FamilyBundle,
                           build_family, build_family_spec)
from .linalg import HermitianMatrix
from .star import CSV_HEADER, classify_star_m
from .transfer import (NotProportional, SupportMismatch, eigenvalue_support,
                       fidelity_sweep, pgst_verdict, pst_verdict,
                       strong_cospectrality)
from .upst_search import classify_all


class FlagError(Exception):
    """A flag value the command cannot use; reported as exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise FlagError, not SystemExit."""

    def error(self, message):
        raise FlagError(message)


def _refuse_beside(args, flag: str, keys) -> None:
    for key in keys:
        if getattr(args, key, None) is not None:
            raise FlagError(f"--{flag} cannot be combined with --{key}")


def _load_bundle(args) -> FamilyBundle:
    if getattr(args, "matrix", None):
        _refuse_beside(args, "matrix", ("family", "n", "m", "param"))
        return FamilyBundle(HermitianMatrix.load(args.matrix))
    if getattr(args, "family", None):
        params = {}
        for key in ("n", "m", "param"):
            val = getattr(args, key, None)
            if val is not None:
                params[key] = val
        return build_family(args.family, **params)
    raise FlagError("need --family or --matrix")


def _check_vertices(args, dim: int) -> None:
    for flag, v in (("--from", args.frm), ("--to", args.to)):
        if not 0 <= v < dim:
            raise FlagError(f"{flag} {v} is out of range for a {dim}-vertex graph")


def _check_numbers(args) -> None:
    """Reject --t-max, --param and --steps values no command can use."""
    t_max = getattr(args, "t_max", None)
    if t_max is not None and not (math.isfinite(t_max) and t_max > 0):
        raise FlagError(f"--t-max {t_max} must be a finite positive number")
    param = getattr(args, "param", None)
    if param is not None and not math.isfinite(param):
        raise FlagError(f"--param {param} must be a finite number")
    steps = getattr(args, "steps", None)
    if steps is not None and steps < 2:
        raise FlagError(f"--steps {steps} must be at least 2")


def _out_stream(args):
    """Context manager for --out; stdout is borrowed, never closed."""
    if getattr(args, "out", None):
        return open(args.out, "w")
    return contextlib.nullcontext(sys.stdout)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_construct(args) -> int:
    if args.spec:
        _refuse_beside(args, "spec", ("family", "matrix", "n", "m", "param"))
        with open(args.spec) as fh:
            bundle = build_family_spec(json.load(fh))
    else:
        bundle = _load_bundle(args)
    with _out_stream(args) as fh:
        json.dump(bundle.matrix.to_json(), fh)
        fh.write("\n")
    return 0


def cmd_analyze(args) -> int:
    bundle = _load_bundle(args)
    dec = bundle.decomposition()
    n = bundle.matrix.dim
    report = {
        "dim": n,
        "eigenvalues": [float(t) for t in dec.eigenvalues],
        "multiplicities": dec.multiplicities,
        "supports": {str(v): list(eigenvalue_support(dec, v))
                     for v in range(n)},
        "strongly_cospectral_pairs": [],
    }
    for a in range(n):
        for b in range(a + 1, n):
            try:
                q = strong_cospectrality(dec, a, b)
            except (SupportMismatch, NotProportional):
                continue
            report["strongly_cospectral_pairs"].append({
                "a": a, "b": b,
                "quarrels": [float(p) for p in q.phases],
                "rational_turns": [None if u is None else str(u)
                                   for u in q.rationals],
            })
    with _out_stream(args) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _transfer_check(args, decide) -> int:
    """Shared body of pst-check and pgst-check: decompose, decide(dec, a, b),
    dump."""
    bundle = _load_bundle(args)
    _check_vertices(args, bundle.matrix.dim)
    verdict = decide(bundle.decomposition(), args.frm, args.to)
    if bundle.notes:
        verdict = replace(verdict, notes=(verdict.notes + "; " + bundle.notes).strip("; "))
    with _out_stream(args) as fh:
        json.dump(verdict.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_pst_check(args) -> int:
    return _transfer_check(args, pst_verdict)


def cmd_pgst_check(args) -> int:
    return _transfer_check(args, pgst_verdict)


def cmd_sweep(args) -> int:
    bundle = _load_bundle(args)
    _check_vertices(args, bundle.matrix.dim)
    result = fidelity_sweep(bundle.decomposition(), args.frm, args.to,
                            args.t_max, args.steps)
    with _out_stream(args) as fh:
        result.to_csv(fh)
    sys.stderr.write(f"max fidelity {_fmt(result.best_fidelity)} "
                     f"at t = {_fmt(result.best_time)}\n")
    return 0


def cmd_search_upst(args) -> int:
    if args.n < 2:
        raise FlagError(f"--n {args.n} must be at least 2")
    reports = classify_all(args.n)
    with _out_stream(args) as fh:
        for report in reports:
            fh.write(report.to_json_line() + "\n")
    survivors = sum(1 for r in reports if r.verdict == "survives")
    sys.stderr.write(f"{len(reports)} report(s), {survivors} survivor(s)\n")
    return 0


def _parse_m_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo_m, hi_m = int(lo), int(hi if sep else lo)
    except ValueError:
        raise FlagError(f"--m {text!r} is not an integer or a range lo..hi")
    if lo_m < 1:
        raise FlagError(f"--m {text!r}: m must be at least 1")
    if lo_m > hi_m:
        raise FlagError(f"--m {text!r} is an empty range")
    return range(lo_m, hi_m + 1)


def cmd_classify_star(args) -> int:
    m_values = _parse_m_range(args.m)
    with _out_stream(args) as fh:
        fh.write(CSV_HEADER + "\n")
        for m in m_values:
            fh.write(classify_star_m(m).csv_row() + "\n")
    return 0


def cmd_verify_paper(args) -> int:
    from .verify import run_battery
    return run_battery(sys.stdout)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qwalk parser, built once per process: parse_args makes a fresh
    Namespace on every call, and no action keeps state between calls."""
    parser = _Parser(
        prog="qwalk",
        description="Quantum-walk state transfer on Hermitian and oriented "
                    "graphs: construction, certification, and search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--family", help="named family to construct ('-' may replace "
                                        f"'_'): {', '.join(FAMILIES)}")
        p.add_argument("--matrix", help="path to a matrix JSON file")
        p.add_argument("--n", type=int, help="family size parameter")
        p.add_argument("--m", type=int, help="family attachment parameter")
        p.add_argument("--param", type=float,
                       help="family real parameter (lambda/theta/gamma)")
        p.add_argument("--out", help="output path (default stdout)")

    def add_vertices(p):
        add_source(p)
        p.add_argument("--from", dest="frm", type=int, required=True,
                       help="source vertex (0-based)")
        p.add_argument("--to", dest="to", type=int, required=True,
                       help="target vertex (0-based)")

    p = sub.add_parser("construct", help="build a family and write its matrix JSON")
    p.add_argument("--spec", help="path to a construction spec JSON")
    add_source(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="spectrum, supports, cospectral pairs, quarrels")
    add_source(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pst-check", help="certify perfect state transfer")
    add_vertices(p)
    p.set_defaults(func=cmd_pst_check)

    p = sub.add_parser("pgst-check", help="certify pretty good state transfer")
    add_vertices(p)
    p.set_defaults(func=cmd_pgst_check)

    p = sub.add_parser("sweep", help="fidelity sweep CSV")
    add_vertices(p)
    p.add_argument("--t-max", dest="t_max", type=float, default=100.0,
                   help="sweep window upper end (default 100)")
    p.add_argument("--steps", type=int, default=20001,
                   help="sweep grid size (default 20001)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("search-upst", help="universal-PST classification reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_search_upst)

    p = sub.add_parser("classify-star", help="star-product transfer table")
    p.add_argument("--m", required=True, help="single value or range lo..hi")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_classify_star)

    p = sub.add_parser("verify-paper", help="run the acceptance battery")
    p.set_defaults(func=cmd_verify_paper)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    # one stderr line per warning, whatever filters the caller installed
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _warning_line
        try:
            args = build_parser().parse_args(argv)
            _check_numbers(args)
            code = args.func(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the reader stopped early (| head): not an analysis failure.
            # What is still buffered goes to devnull, so the flush at
            # interpreter exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except (FlagError, BadFamilyParameters) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            sys.stderr.write(f"error: out of memory{detail}\n")
            return 1
        except (ValueError, OSError, RuntimeError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
