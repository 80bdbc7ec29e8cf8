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
--ratio gates, --baseline and --binary may be omitted.

Stdlib only; exits 0 when every gated row holds, 1 otherwise.
"""

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def _rows(report):
    """name -> real_time in ns for every non-aggregate benchmark row."""
    out = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        unit = bench.get("time_unit", "ns")
        out[name] = float(bench["real_time"]) * _UNIT_NS[unit]
    return out


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


def main():
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
    args = parser.parse_args()
    if args.baseline is None and not args.ratio:
        parser.error("give --baseline and --binary, or --ratio")
    if args.baseline is not None and args.binary is None:
        parser.error("--baseline needs --binary")

    with open(args.current) as f:
        cur = _rows(json.load(f))

    failed = 0
    if args.baseline is not None:
        failed += _check_baseline(args, cur)
    failed += _check_ratios(args.ratio, cur)
    if failed:
        return 1
    print("\nall gated rows within threshold")
    return 0

if __name__ == "__main__":
    sys.exit(main())
