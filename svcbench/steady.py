#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly and reports each metric's
spread against the bound BENCHMARK.json gives it.

    python3 svcbench/steady.py --workload paper_fleet --runs 10
    python3 svcbench/steady.py --workload large_m --runs 5 --first-seed 100

Each run uses another seed (first-seed, first-seed + 1, ...). For every
end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the interquartile spread and
the min-max spread as shares of the median, and the metric's bound. A
spread under a third of the bound is marked "steady"; under the bound,
"ok"; otherwise "NOISY". setup_s is gated only on its median, so its
spread is reported but not judged. Raw per-run values are written as JSON
lines to .bench_build/steady-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values):
    """(median, q1, q3, iqr share, min-max share) of a sample.

    The quartiles are statistics.quantiles(values, n=4) with its default
    (exclusive) method, the rule the benchmark's acceptance uses; shares are
    of the median and are infinite when the median is zero.
    """
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median)
    iqr = (q3 - q1) / scale if scale else float("inf")
    full = (max(values) - min(values)) / scale if scale else float("inf")
    return median, q1, q3, iqr, full


def verdict(name, iqr, bound):
    if name == "setup_s":
        return "median-only"
    if iqr < bound / 3.0:
        return "steady"
    return "ok" if iqr <= bound else "NOISY"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("steady.py: need at least 2 runs")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    log_path = os.path.join(ROOT, ".bench_build",
                            "steady-%s.jsonl" % args.workload)
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "a") as log:
        for k in range(args.runs):
            seed = args.first_seed + k
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit("steady.py: run with seed %d failed" % seed)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "result": result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("seed %d: %s" % (seed, "  ".join(
                "%s=%.4g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)

    print("\n%-22s %12s %12s %12s %8s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "iqr", "min-max", "bound", "verdict"))
    for name, series in values.items():
        median, q1, q3, iqr, full = spread(series)
        bound = bounds.get(name, float("nan"))
        print("%-22s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%  %s" % (
            name, median, q1, q3, iqr * 100, full * 100, bound * 100,
            verdict(name, iqr, bound)))


if __name__ == "__main__":
    main()
