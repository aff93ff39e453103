#!/usr/bin/env python3
"""Benchmark for qwalk: state-transfer queries and the acceptance battery.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

Runs from the root of a source checkout and imports ``qwalk`` from ``src``.
Queries go through ``qwalk.cli.main`` in this process (one closed-loop
client) and the battery through ``qwalk.verify.run_battery``.  A pass runs
the workload's fixed inputs once; a round runs one half of a query pass,
or one battery.  Rounds repeat while they fit in ``--seconds``.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
printed.  Outputs are checked by ``oracle.py`` after
the timed rounds.  The last line of stdout is the JSON result; the full
record and the trace spans go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify", "spectral", "battery")
SETUP_PROBES = 4
WARMUP_EIGH_DIM = 256
WARMUP_QUERY = ("pst-check", "--family", "oriented-k3", "--from", "0", "--to", "1")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BATTERY_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+) \([0-9.]+s\) (.*)$")
# The battery's criteria, named here so that the per-layer metric set stays
# fixed when a criterion is renamed or dropped (its metrics then read 0).
CRITERIA = ("oriented-k3-universal-pst", "c4-tensor-family", "one-way-pst",
            "eight-vertex-example", "exhaustive-classification",
            "star-product-spectra", "star-classification",
            "looped-path-product", "property-suites")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "success_ratio": "ratio", "peak_rss_mb": "MB"}
BLAS_THREADS = 1


@dataclass
class Outcome:
    rc: object
    stdout: str
    stderr: str
    exc: str | None = None


def run_cli(main, argv) -> Outcome:
    """One ``qwalk`` command in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as stop:
            rc = stop.code
            if isinstance(rc, str):  # as the interpreter does for exit("message")
                err.write(rc + "\n")
                rc = 1
        except Exception as error:  # the benchmark counts it and goes on
            exc = f"{type(error).__name__}: {error}"
    return Outcome(rc, out.getvalue(), err.getvalue(), exc)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int, workdir: Path):
    """Import, input generation and warm-up; returns (seconds, context)."""
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "qwalk" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qwalk sources under {src}")
    sys.path.insert(0, str(src))
    import numpy as np
    import qwalk.cli
    import qwalk.verify
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        halves = workloads.certify_queries(seed)
    elif workload == "spectral":
        halves = workloads.spectral_queries(seed, str(workdir))
    else:
        halves = None
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((WARMUP_EIGH_DIM, WARMUP_EIGH_DIM))
    np.linalg.eigh(a + a.T)
    run_cli(qwalk.cli.main, WARMUP_QUERY)
    return time.perf_counter() - start, (np, qwalk.cli, qwalk.verify, halves)


def probe_setups(args) -> list[float]:
    """Set-up time of fresh processes, which pay import and BLAS start-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def query_round(queries, cli_main, tracer, op_base):
    """One round over the queries of a half-pass.  Each query starts from
    a collected heap, as a fresh ``qwalk`` process would, so garbage one
    query leaves does not land in the next one's time; the collection is
    not timed.  The round's time is the sum of the query latencies."""
    latencies, outcomes = [], []
    for i, query in enumerate(queries):
        span = tracer.op("cli", op_base + i) if tracer else contextlib.nullcontext()
        gc.collect()
        t = time.perf_counter()
        with span:
            outcome = run_cli(cli_main, query.argv)
        latencies.append(time.perf_counter() - t)
        outcomes.append(outcome)
    return sum(latencies), latencies, outcomes


def battery_round(verify, tracer, op_base):
    """One ``run_battery`` call, which is one operation.  When tracing, each
    criterion in ``verify.CRITERIA`` runs in a span of its own."""
    original = list(verify.CRITERIA)
    if tracer is not None:
        verify.CRITERIA[:] = [(entry[0], in_span(tracer, f"verify.{entry[0]}", op_base + i,
                                                 entry[1]), *entry[2:])
                              for i, entry in enumerate(original)]
    stream = io.StringIO()
    gc.collect()
    try:
        start = time.perf_counter()
        verify.run_battery(stream)
        wall = time.perf_counter() - start
    finally:
        verify.CRITERIA[:] = original
    return wall, [wall], stream.getvalue()


def in_span(tracer, name, op_id, fn):
    def call():
        with tracer.op(name, op_id):
            return fn()
    return call


def battery_results(text: str, expected: int) -> list[tuple[bool, bool, str]]:
    """(failed, wrong, reason) per criterion line of the battery output.  A
    criterion that passed its check but ran over its time budget, or that
    raised, has failed without giving a wrong answer."""
    results = []
    for line in text.splitlines():
        match = BATTERY_LINE.match(line)
        if match is None:
            continue
        tag, name, detail = match.groups()
        if tag == "PASS":
            results.append((False, False, ""))
        else:
            wrong = not detail.startswith(("passed but exceeded", "exception:"))
            results.append((True, wrong, f"{name}: {detail}"))
    results += [(True, False, "criterion line missing")] * (expected - len(results))
    return results


def measure(ctx, seconds, tracer):
    """Closed loop of rounds, which take turns over the halves of a pass.
    With a tracer, a pass of untraced rounds and a pass of traced ones
    alternate, and the loop stops only after such a pair.  After the first
    two passes, the next round (pair of passes with a tracer) starts only
    if it would end within ``seconds``, judged by the last one of its kind;
    so a run lasts a little under ``seconds``, or two passes.  Two passes
    give at least 200 query samples, so the tail is always p95."""
    _, cli, verify, halves = ctx
    kinds = halves or [None]
    step = len(kinds) * (2 if tracer else 1)   # rounds between stops
    back = max(step, len(kinds))                # rounds back to the same kind
    rounds = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        if k >= 2 * len(kinds) and k % step == 0:
            expected = sum(r["elapsed"] for r in rounds[k - back:k - back + step])
            if time.perf_counter() + expected > start + seconds:
                break
        half = k % len(kinds)
        traced = tracer is not None and (k // len(kinds)) % 2 == 1
        active = tracer if traced else None
        began = time.perf_counter()
        with (tracer.installed() if traced else contextlib.nullcontext()):
            if halves is None:
                wall, lat, out = battery_round(verify, active, k * 1000)
            else:
                wall, lat, out = query_round(kinds[half], cli.main, active, k * 1000)
        rounds.append({"half": half, "traced": traced, "wall": wall, "lat": lat,
                       "out": out, "elapsed": time.perf_counter() - began})
    return rounds


def pass_time(rounds) -> float:
    """Time of one pass: the median round time of each half, summed."""
    halves = sorted({r["half"] for r in rounds})
    return sum(statistics.median(r["wall"] for r in rounds if r["half"] == h)
               for h in halves)


def judge(rounds, halves, oracle, criteria: int):
    """Check every query's output, or every battery criterion; identical
    outputs are judged once.  Returns (attempted, failed, wrong, {reason:
    count})."""
    judged = {}
    attempted = failed = wrong = 0
    reasons: dict[str, int] = {}
    for r in rounds:
        if halves is None:
            results = battery_results(r["out"], criteria)
        else:
            results = []
            for q, o in zip(halves[r["half"]], r["out"]):
                key = (q.argv, o.rc, o.stdout, o.stderr, o.exc)
                if key not in judged:
                    judged[key] = oracle.check(q, o)
                results.append(judged[key])
        for is_failed, is_wrong, reason in results:
            attempted += 1
            failed += is_failed
            wrong += is_wrong
            if reason:
                reasons[reason] = reasons.get(reason, 0) + 1
    return attempted, failed, wrong, reasons


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def harrell_davis(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  It moves
    smoothly with every sample near the quantile, where one order statistic
    jumps with whichever sample lands there."""
    import numpy as np
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64
    u = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile of the ladder with at least ten samples beyond
    it, by Harrell-Davis; the maximum when there are fewer than twenty
    samples."""
    k = len(samples)
    for p in TAIL_LADDER:
        if k * (100.0 - p) >= 1000.0 - 1e-9:
            return p, harrell_davis(samples, p / 100.0)
    return 100.0, max(samples)


def exact_verdict(outcome) -> bool | None:
    """Whether a pst/pgst verdict was decided exactly; None if no verdict."""
    if outcome.exc or outcome.rc != 0:
        return None
    try:
        verdict = json.loads(outcome.stdout)
    except ValueError:
        return None
    return (verdict.get("kind") in ("absent-certified", "PGST-certified")
            or verdict.get("witness", {}).get("mode") == "exact")


def layer_metrics(tracer, rounds, verify, halves) -> dict[str, tuple[float, str]]:
    from tracing import COUNTED_FUNCTIONS, LAYER_FUNCTIONS, SURD, span_name
    traced = [r for r in rounds if r["traced"]]
    n = len(traced) / len(halves or [None])  # traced passes
    totals = tracer.layer_totals()
    metrics = {}
    for module, attr in LAYER_FUNCTIONS:
        name = span_name(module, attr)
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        if name == "linalg.validate":
            metrics["linalg.validate_s"] = (incl / n, "s")
            continue
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for module, attr in COUNTED_FUNCTIONS:
        name = span_name(module, attr)
        metrics[f"{name}.calls"] = (tracer.counts[name] / n, "count")
        metrics[f"{name}.self_s"] = (tracer.counted_s[name] / n, "s")
    metrics["linalg.eigh_s"] = (totals.get("linalg.eigh", (0, 0.0))[1] / n, "s")
    metrics["linalg.projector_bytes"] = (tracer.projector_bytes, "bytes")
    metrics["numtheory.surd_ops"] = (tracer.counts[SURD] / n, "count")
    metrics["numtheory.surd_ratio_calls"] = (tracer.counts[f"{SURD}_ratio_calls"] / n,
                                             "count")
    metrics["numtheory.surd_s"] = (tracer.counted_s[SURD] / n, "s")
    metrics["transfer.sweep_points"] = (tracer.counts["sweep_points"] / n, "count")
    decided = []
    if halves is not None:
        decided = [exact_verdict(o) for r in traced
                   for q, o in zip(halves[r["half"]], r["out"])
                   if q.command in ("pst-check", "pgst-check")]
        decided = [d for d in decided if d is not None]
    metrics["transfer.exact_verdict_ratio"] = (
        sum(decided) / len(decided) if decided else 0.0, "ratio")
    metrics["cli.self_s"] = (totals.get("cli", (0, 0.0, 0.0))[2] / n, "s")
    budgets = {entry[0]: entry[2] for entry in getattr(verify, "CRITERIA", ())}
    for name in CRITERIA:
        seconds = totals.get(f"verify.{name}", (0, 0.0))[1] / n
        metrics[f"verify.{name}.s"] = (seconds, "s")
        budget = budgets.get(name)
        metrics[f"verify.{name}.budget_share"] = (
            seconds / budget if budget else 0.0, "ratio")
    untraced = [r for r in rounds if not r["traced"]]
    metrics["trace.overhead"] = (pass_time(traced) / pass_time(untraced), "ratio")
    metrics["trace.absent_names"] = (len(tracer.absent), "count")
    return metrics


def end_to_end_metrics(rounds, operations, setup_times, failed, attempted,
                       peak_rss_mb):
    untraced = [r for r in rounds if not r["traced"]]
    samples = [t for r in untraced for t in r["lat"]]
    tail_p, tail = tail_percentile(samples)
    info = {"tail_percentile": tail_p, "operations": operations,
            "samples": len(samples), "rounds": len(untraced),
            "failed_ratio": failed / attempted}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": pass_time(untraced),
        "op_p50_ms": 1000 * statistics.median(samples),
        "op_tail_ms": 1000 * tail,
        "success_ratio": 1 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def environment(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "client": "closed loop, one client, one process"}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        own_setup, ctx = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(f"{own_setup!r}")
            return 0
        np, cli, verify, halves = ctx
        from oracle import Oracle
        from tracing import Tracer

        tracer = Tracer() if args.trace else None
        origin = time.perf_counter()
        rounds = measure(ctx, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        oracle = Oracle(lambda argv: run_cli(cli.main, argv))
        attempted, failed, wrong, reasons = judge(rounds, halves, oracle,
                                                  len(verify.CRITERIA))
        setup_times = [own_setup] + probe_setups(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np, args)
    record = {"environment": env, "setup_samples_s": setup_times,
              "round_half": [r["half"] for r in rounds],
              "round_traced": [r["traced"] for r in rounds],
              "round_walls_s": [r["wall"] for r in rounds],
              "round_elapsed_s": [r["elapsed"] for r in rounds],
              "round_latencies_s": [r["lat"] for r in rounds],
              "failures": reasons}
    if tracer is None:
        operations = sum(map(len, halves)) if halves else 1
        metrics, info = end_to_end_metrics(rounds, operations, setup_times, failed,
                                           attempted, peak_rss_mb)
        record["tail"] = info
    else:
        metrics = layer_metrics(tracer, rounds, verify, halves)
        record["absent_names"] = tracer.absent
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", origin)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for reason, count in reasons.items():
        print(f"failure x{count}: {reason}")
    if tracer is None:
        print(f"op_tail_ms is p{info['tail_percentile']:g} over {info['samples']} samples "
              f"({info['operations']} operations a pass, {info['rounds']} rounds); "
              f"failed_ratio={info['failed_ratio']:.4f}")
    else:
        print(f"absent names: {tracer.absent or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    status, results = 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(f"{workload} failed:\n{proc.stderr}")
            status = 1
            continue
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # used by probe_setups
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One BLAS thread: on a shared host each vCPU changes speed on its own,
    # and a threaded solve waits for the slower one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"benchmark failed: {exc!r}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
