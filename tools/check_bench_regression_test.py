#!/usr/bin/env python3
"""Self-test of check_bench_regression.py's same-report gates over canned
Google Benchmark JSON.

    python3 tools/check_bench_regression_test.py

Stdlib unittest; needs no build.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402

ROW = "BM_EngineFootprint/100000/316/iterations:1"


def _row(name, real_time, **counters):
    row = {"name": name, "run_type": "iteration", "iterations": 1,
           "real_time": real_time, "cpu_time": real_time, "time_unit": "ms"}
    row.update(counters)
    return row


class GateTest(unittest.TestCase):
    def run_gate(self, rows, *args):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump({"benchmarks": rows}, f)
        self.addCleanup(os.remove, f.name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            status = gate.main(["--current", f.name] + list(args))
        return status, out.getvalue()

    def test_counter_within_its_limit_passes(self):
        status, out = self.run_gate(
            [_row(ROW, 90.0, checkpoint_B_per_seller=210.8)],
            "--counter", ROW, "checkpoint_B_per_seller", "232")
        self.assertEqual(status, 0, out)
        self.assertIn("[COUNT]", out)

    def test_counter_above_its_limit_fails(self):
        status, out = self.run_gate(
            [_row(ROW, 90.0, checkpoint_B_per_seller=533.4)],
            "--counter", ROW, "checkpoint_B_per_seller", "232")
        self.assertEqual(status, 1)
        self.assertIn("FAIL", out)

    def test_missing_counter_or_row_fails(self):
        for rows in ([_row(ROW, 90.0, round2_B_per_seller=210.8)],
                     [_row("BM_Other", 1.0, checkpoint_B_per_seller=1.0)]):
            status, out = self.run_gate(
                rows, "--counter", ROW, "checkpoint_B_per_seller", "232")
            self.assertEqual(status, 1, out)
            self.assertIn("[GONE]", out)

    def test_repeated_counter_reads_as_its_median(self):
        rows = [_row(ROW, 90.0, checkpoint_B_per_seller=v)
                for v in (200.0, 240.0, 210.0)]
        rows.append({"name": ROW + "_mean", "run_type": "aggregate",
                     "real_time": 90.0, "time_unit": "ms",
                     "checkpoint_B_per_seller": 999.0})
        status, out = self.run_gate(
            rows, "--counter", ROW, "checkpoint_B_per_seller", "215")
        self.assertEqual(status, 0, out)
        self.assertIn("210.000", out)

    def test_ratio_gate_still_reads_times(self):
        rows = [_row("BM_Fast", 1.0), _row("BM_Slow", 4.0)]
        self.assertEqual(
            self.run_gate(rows, "--ratio", "BM_Fast", "BM_Slow", "0.3")[0], 0)
        self.assertEqual(
            self.run_gate(rows, "--ratio", "BM_Fast", "BM_Slow", "0.2")[0], 1)


if __name__ == "__main__":
    unittest.main()
