#!/usr/bin/env python3
"""Gate the large-M benchmark families against a checked-in baseline.

Compares a fresh Google-Benchmark JSON report against the matching
section of a combined BENCH_<pr>.json baseline (one top-level key per
bench binary, see docs/PERFORMANCE.md).

Only the large-M families are considered (names matching --family-regex,
default: the LargeM / PaperK / UcbScan / *SelectRound families). Within
them, rows whose name matches --gate-regex (default: the M=1e4 rows)
FAIL the run when they regress more than --threshold over the baseline;
every other row is report-only — the M=1e5/1e6 rows take long enough
that CI noise would make a hard gate flaky, but their trend is still
printed into the job log and the uploaded artifact. A gated baseline row
that the current report lacks (renamed or deleted benchmark) also FAILS
the run, so a row cannot escape the gate by vanishing.

Same-report ratio gates (--ratio NUMERATOR DENOMINATOR MAX, repeatable)
compare two rows of the one fresh report, typically an optimized row and
its Reference twin, so the gate measures the change rather than the host.
A ratio above MAX FAILS the run, and so does a missing row. With only
--ratio gates, --baseline and --binary may be omitted. A report run with
--benchmark_repetitions is read as each row's median over its
repetitions, which a gate on a small ratio needs to read more than noise.

Counter limits (--counter ROW COUNTER MAX, repeatable) read a user
counter a row reports beside its time, such as BM_EngineFootprint's
heap bytes per seller. A counter above MAX FAILS the run, and so does a
missing row or counter. A count of bytes does not depend on the host the
way a time does, so an absolute limit holds on any machine. A repeated
row is read as its median, as for the ratios.

Stdlib only; exits 0 when every gated row holds, 1 otherwise.
"""

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def _rows(report):
    """name -> real_time in ns for every non-aggregate benchmark row; the
    median over a row's repetitions when the report repeats it
    (--benchmark_repetitions)."""
    runs = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        unit = bench.get("time_unit", "ns")
        runs.setdefault(name, []).append(
            float(bench["real_time"]) * _UNIT_NS[unit])
    return {name: statistics.median(times) for name, times in runs.items()}


def _counter(report, row, counter):
    """ROW's user counter COUNTER: the median over the row's repetitions,
    or None when no non-aggregate row reports it."""
    values = [float(bench[counter]) for bench in report.get("benchmarks", [])
              if bench.get("run_type") != "aggregate"
              and bench["name"] == row and counter in bench]
    return statistics.median(values) if values else None


def _check_baseline(args, cur):
    """Gates the large-M families against the baseline; returns the
    failure count (regressions, vanished rows, or no family row at all)."""
    import re
    family = re.compile(args.family_regex)
    gate = re.compile(args.gate_regex)

    with open(args.baseline) as f:
        combined = json.load(f)
    if args.binary not in combined:
        print(f"baseline has no '{args.binary}' section", file=sys.stderr)
        return 1
    base = _rows(combined[args.binary])

    failures = []
    seen_any = False
    for name in sorted(cur):
        if not family.search(name):
            continue
        seen_any = True
        if name not in base:
            print(f"  [new]    {name}: {cur[name] / 1e3:.1f} us "
                  "(no baseline row)")
            continue
        ratio = cur[name] / base[name]
        gated = bool(gate.search(name))
        tag = "GATE" if gated else "info"
        print(f"  [{tag}]   {name}: {cur[name] / 1e3:.1f} us vs "
              f"{base[name] / 1e3:.1f} us baseline ({ratio:.2f}x)")
        if gated and ratio > args.threshold:
            failures.append((name, ratio))

    if not seen_any:
        print("no large-M benchmark rows found in the current report",
              file=sys.stderr)
        return 1
    missing = [name for name in sorted(base)
               if family.search(name) and gate.search(name)
               and name not in cur]
    for name in missing:
        print(f"  [GONE]   {name}: gated baseline row missing from the "
              "current report")
    if missing:
        print(f"\n{len(missing)} gated baseline row(s) missing from the "
              "current report", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} gated row(s) regressed beyond "
              f"{args.threshold:.2f}x:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
    return len(missing) + len(failures)


def _check_ratios(ratios, cur):
    """Gates numerator/denominator time ratios within the one report;
    returns the failure count."""
    failed = 0
    for numerator, denominator, limit in ratios:
        absent = [name for name in (numerator, denominator)
                  if name not in cur]
        if absent:
            print(f"  [GONE]   ratio row(s) missing from the current "
                  f"report: {', '.join(absent)}", file=sys.stderr)
            failed += 1
            continue
        ratio = cur[numerator] / cur[denominator]
        verdict = "ok" if ratio <= float(limit) else "FAIL"
        print(f"  [RATIO]  {numerator} / {denominator}: {ratio:.3f} "
              f"(max {float(limit):.3f}) {verdict}")
        if verdict == "FAIL":
            failed += 1
    return failed


def _check_counters(limits, report):
    """Gates counters against absolute limits; returns the failure
    count."""
    failed = 0
    for row, counter, limit in limits:
        value = _counter(report, row, counter)
        if value is None:
            print(f"  [GONE]   counter {counter} of {row} missing from the "
                  "current report", file=sys.stderr)
            failed += 1
            continue
        verdict = "ok" if value <= float(limit) else "FAIL"
        print(f"  [COUNT]  {row} {counter}: {value:.3f} "
              f"(max {float(limit):.3f}) {verdict}")
        if verdict == "FAIL":
            failed += 1
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="combined BENCH_<pr>.json baseline")
    parser.add_argument("--current", required=True,
                        help="fresh --benchmark_format=json report")
    parser.add_argument("--binary",
                        help="baseline key to compare against, "
                             "e.g. micro_engine")
    parser.add_argument("--family-regex",
                        default=r"LargeM|PaperK|UcbScan|SelectRound",
                        help="rows considered at all")
    parser.add_argument("--gate-regex", default=r"/10000\b|/10000/",
                        help="rows that hard-fail on regression")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="max allowed current/baseline time ratio")
    parser.add_argument("--ratio", nargs=3, action="append", default=[],
                        metavar=("NUMERATOR", "DENOMINATOR", "MAX"),
                        help="fail when NUMERATOR's time over "
                             "DENOMINATOR's in the current report "
                             "exceeds MAX")
    parser.add_argument("--counter", nargs=3, action="append", default=[],
                        metavar=("ROW", "COUNTER", "MAX"),
                        help="fail when ROW's user counter COUNTER in the "
                             "current report exceeds MAX")
    args = parser.parse_args(argv)
    if args.baseline is None and not args.ratio and not args.counter:
        parser.error("give --baseline and --binary, --ratio or --counter")
    if args.baseline is not None and args.binary is None:
        parser.error("--baseline needs --binary")

    with open(args.current) as f:
        report = json.load(f)
    cur = _rows(report)

    failed = 0
    if args.baseline is not None:
        failed += _check_baseline(args, cur)
    failed += _check_ratios(args.ratio, cur)
    failed += _check_counters(args.counter, report)
    if failed:
        return 1
    print("\nall gated rows within threshold")
    return 0

if __name__ == "__main__":
    sys.exit(main())
