#!/usr/bin/env python3
"""Tests of the steadiness check's quartile and verdict code.

    python3 -m unittest discover -s svcbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import steady  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_use_the_exclusive_method(self):
        median, q1, q3, iqr, full = steady.spread(list(range(1, 11)))
        self.assertEqual(median, 5.5)
        # statistics.quantiles(range(1, 11), n=4): positions (n + 1) * k / 4.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(iqr, (8.25 - 2.75) / 5.5)
        self.assertAlmostEqual(full, 9 / 5.5)

    def test_order_does_not_matter(self):
        self.assertEqual(steady.spread([3.0, 1.0, 2.0, 5.0, 4.0]),
                         steady.spread([1.0, 2.0, 3.0, 4.0, 5.0]))

    def test_identical_values_have_no_spread(self):
        median, q1, q3, iqr, full = steady.spread([2.5] * 10)
        self.assertEqual((median, q1, q3, iqr, full), (2.5, 2.5, 2.5, 0, 0))

    def test_zero_median_gives_infinite_share(self):
        _, _, _, iqr, full = steady.spread([-1.0, 0.0, 1.0])
        self.assertTrue(math.isinf(iqr) and math.isinf(full))


class VerdictTest(unittest.TestCase):
    def test_thresholds(self):
        self.assertEqual(steady.verdict("rounds_per_s", 0.049, 0.15), "steady")
        self.assertEqual(steady.verdict("rounds_per_s", 0.051, 0.15), "ok")
        self.assertEqual(steady.verdict("rounds_per_s", 0.16, 0.15), "NOISY")

    def test_setup_is_judged_on_its_median_only(self):
        self.assertEqual(steady.verdict("setup_s", 0.9, 0.25), "median-only")


if __name__ == "__main__":
    unittest.main()
