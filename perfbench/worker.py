"""The benchmark's worker process: set-up timing, the repetition loop, metrics.

``run.py`` starts this file with a pinned environment; see README.md.  The
last line printed is the result object; the lines before it give the same
metrics for a reader, with quartiles, counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from tracing import Hooks, Tracer, self_times
from workloads import DEFAULT_SEED, WORKLOADS, import_program, run_cli, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_REPS = 2
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
# Seconds from the worker's start by which the traced run's layer series must
# end; run.py stops the worker at its TIMEOUT_S.
TRACE_DEADLINE_S = 140

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="bipcorr benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "pinned": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def setup_times() -> list:
    """Wall seconds from a fresh interpreter to ready, SETUP_RUNS times."""
    out = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        out.append(time.perf_counter() - start)
    return out


def run_rep(bipcorr, workload, tracer=None) -> dict:
    """One repetition: every CLI call of the task, timed, then checked."""
    layers.clear_caches()

    def task():
        return [run_cli(bipcorr.cli, argv) for argv in workload.calls()]

    start = time.perf_counter()
    try:
        outputs = tracer.call("cli.main", "cli", "", task) if tracer else task()
    except Exception:  # a crash is a failed repetition, not a failed run
        return {"seconds": time.perf_counter() - start, "failure": traceback.format_exc(limit=3)}
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "failure": workload.check(outputs)}


def traced_rep(bipcorr, workload) -> tuple:
    tracer = Tracer()
    with Hooks(tracer, layers.PACKAGE, layers.SPAN_HOOKS, layers.INSTANCE_HOOKS) as hooks:
        rep = run_rep(bipcorr, workload, tracer)
    metrics = layers.task_metrics(tracer.spans, tracer.instances, hooks)
    root = [span for span in tracer.spans if span.parent is None]
    accounted = sum(own for _, own in self_times(tracer.spans))
    rep["accounted_share"] = accounted / sum(span.duration for span in root)
    return rep, metrics


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(args, bipcorr, workload) -> dict:
    """Repetitions until ``args.seconds`` have passed; a traced run alternates untraced and traced."""
    reps, traced, task_sets = [], [], []
    peak_rss_kb = None
    start = time.perf_counter()
    while True:
        reps.append(run_rep(bipcorr, workload))
        if peak_rss_kb is None:
            # The first repetition is what one `bipcorr` process does; later ones
            # would add the heap left behind by earlier ones.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            rep, metrics = traced_rep(bipcorr, workload)
            traced.append(rep)
            task_sets.append(metrics)
        if time.perf_counter() - start >= args.seconds and (args.trace or len(reps) >= MIN_REPS):
            break
    return {"reps": reps, "traced": traced, "task_sets": task_sets, "peak_rss_kb": peak_rss_kb}


def _times(reps: list) -> list:
    return [rep["seconds"] for rep in reps if rep["failure"] is None]


def _median(values: list):
    return statistics.median(values) if values else None


def result(args, env, setup, runs, series) -> tuple:
    """(details for the lines above the result, the result object)."""
    reps, traced = runs["reps"], runs["traced"]
    failures = [rep["failure"] for rep in reps + traced if rep["failure"] is not None]
    times = _times(reps)
    if args.trace:
        units = layers.PER_LAYER
        values, reasons = dict(series.values), dict(series.reasons)
        for name in runs["task_sets"][0].values:
            per_rep = [m.values[name] for m in runs["task_sets"]]
            values[name] = None if None in per_rep else statistics.median(per_rep)
        for metrics in runs["task_sets"]:
            reasons.update(metrics.reasons)
        traced_times = _times(traced)
        values["trace.overhead_ratio"] = (
            _median(traced_times) / _median(times) if times and traced_times else None
        )
    else:
        units = layers.END_TO_END
        reasons = {}
        values = {
            "task_s": _median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": runs["peak_rss_kb"] / 1024,
        }
    attempted = len(reps) + len(traced)
    details = {
        "wall_s": time.perf_counter() - args.start,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "task_s": {
            "quartiles": quartiles(times) if times else None,
            "reps": len(times),
            "all_s": [rep["seconds"] for rep in reps],
        },
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "setup_s_all": setup,
        "null_reasons": reasons,
    }
    if args.trace:
        details["traced_task_s"] = [rep["seconds"] for rep in traced]
        details["accounted_share"] = [rep["accounted_share"] for rep in traced]
    summary = {
        "correct": not failures and times != [],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    return details, summary


def _seconds(values: list) -> str:
    return ", ".join(f"{v:.4f}" for v in values) + " s"


def print_report(details: dict, summary: dict) -> None:
    print(f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}")
    print("env " + json.dumps(details["env"], sort_keys=True))
    task = details["task_s"]
    if task["quartiles"]:
        q1, q3 = task["quartiles"]
        print(f"  task_s quartiles {q1:.4f} .. {q3:.4f} s over {task['reps']} repetitions")
    print("  task_s of every repetition: " + _seconds(task["all_s"]))
    if details["setup_s_all"]:
        print("  setup_s of every set-up: " + _seconds(details["setup_s_all"]))
    if "traced_task_s" in details:
        print("  traced task_s of every traced repetition: " + _seconds(details["traced_task_s"]))
    print(f"  fail_ratio {details['fail_ratio']:.4f} ratio ({summary['failed']} of {summary['attempted']})")
    for failure in details["failures"]:
        print("  failure: " + failure.strip().replace("\n", " | "))
    for name, metric in summary["metrics"].items():
        value = metric["value"]
        shown = "null (" + details["null_reasons"].get(name, "no value") + ")" if value is None else f"{value:.6g}"
        print(f"  {name} {shown} {metric['unit']}")
    if "accounted_share" in details:
        shares = ", ".join(f"{s:.6f}" for s in details["accounted_share"])
        print(f"  layer self times + cli.self_s as a share of traced task_s: {shares}")
    print(f"  wall_s {details['wall_s']:.2f} s from the worker's start to this report")


def main(argv=None) -> int:
    args = parse_args(argv)
    args.start = time.perf_counter()
    try:
        bipcorr = import_program(SRC)
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    env = environment()
    setup = [] if args.trace else setup_times()
    warm_up(bipcorr.cli)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare(bipcorr)
        runs = measure(args, bipcorr, workload)
        budget = layers.Budget(args.start + TRACE_DEADLINE_S)
        series = layers.series_metrics(bipcorr, args.seed, budget) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details, summary = result(args, env, setup, runs, series)
    print_report(details, summary)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
