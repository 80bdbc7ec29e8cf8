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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="combined BENCH_<pr>.json baseline")
    parser.add_argument("--current", required=True,
                        help="fresh --benchmark_format=json report")
    parser.add_argument("--binary", required=True,
                        help="baseline key to compare against, "
                             "e.g. micro_engine")
    parser.add_argument("--family-regex",
                        default=r"LargeM|PaperK|UcbScan|SelectRound",
                        help="rows considered at all")
    parser.add_argument("--gate-regex", default=r"/10000\b|/10000/",
                        help="rows that hard-fail on regression")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="max allowed current/baseline time ratio")
    args = parser.parse_args()

    import re
    family = re.compile(args.family_regex)
    gate = re.compile(args.gate_regex)

    with open(args.baseline) as f:
        combined = json.load(f)
    if args.binary not in combined:
        print(f"baseline has no '{args.binary}' section", file=sys.stderr)
        return 1
    base = _rows(combined[args.binary])
    with open(args.current) as f:
        cur = _rows(json.load(f))

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
    if missing or failures:
        return 1
    print("\nall gated rows within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
