"""Record the benchmark: every workload at seeds 1..10, then one traced run each.

Usage: python3 perfbench/record.py [--no-trace] [--out FILE]

For each end-to-end metric it reports the median of the runs and the spread:
the distance between the first and third quartile (``statistics.quantiles``)
as a share of the median.  Runs are made one after another, never in
parallel, so they do not disturb each other's timing.  Each run's wall time,
from starting ``run.py`` to its exit, is kept as ``wall_s``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list) -> tuple:
    """(median, quartiles, IQR / median) of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q1, q3), (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        entry = {"runs": runs, "end_to_end": {}}
        for name, bound in bounds.items():
            median, (q1, q3), share = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": share, "bound": bound,
                "within_third_of_bound": share < bound / 3,
            }
            print(f"{workload} {name} median {median:.6g} spread {share:.4f} bound {bound}", flush=True)
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        if not args.no_trace:
            entry["traced"] = run(workload, 1, spec["run_seconds"], 1)
            traced = entry["traced"]
            print(f"{workload} traced run correct={traced['correct']} wall {traced['wall_s']:.1f} s", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
