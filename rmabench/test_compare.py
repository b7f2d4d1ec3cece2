#!/usr/bin/env python3
"""Unit tests of compare.py on canned inputs.

  python3 rmabench/test_compare.py
"""

import io
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        self.assertEqual(compare.quartiles(xs),
                         tuple(statistics.quantiles(xs, n=4)))

    def test_ten_runs(self):
        xs = list(range(1, 11))
        self.assertEqual(compare.quartiles(xs), (2.75, 5.5, 8.25))

    def test_interpolates_between_ranks(self):
        # Exclusive method: the q-th quartile sits at rank q * (n + 1) / 4.
        self.assertEqual(compare.quartiles([10, 20, 30, 40]),
                         (12.5, 25.0, 37.5))

    def test_order_does_not_matter(self):
        self.assertEqual(compare.quartiles([3, 1, 2]),
                         compare.quartiles([1, 2, 3]))

    def test_single_run(self):
        self.assertEqual(compare.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_no_runs_is_an_error(self):
        with self.assertRaises(ValueError):
            compare.quartiles([])

    def test_relative_spread(self):
        self.assertAlmostEqual(compare.relative_spread(list(range(1, 11))),
                               5.5 / 5.5)


class WinShareTest(unittest.TestCase):
    def test_lower_is_better(self):
        pairs = [(10, 9), (10, 11), (10, 8), (10, 10)]
        self.assertEqual(compare.win_share(pairs, "lower"), 0.5)

    def test_higher_is_better(self):
        pairs = [(10, 9), (10, 11), (10, 12), (10, 10)]
        self.assertEqual(compare.win_share(pairs, "higher"), 0.5)

    def test_ties_win_nothing(self):
        self.assertEqual(compare.win_share([(1, 1)] * 3, "lower"), 0.0)


def runs(center, jitter, n=10):
    """n values around `center`, alternating +-jitter (deterministic)."""
    return [center + (jitter if i % 2 else -jitter) * (1 + i / n)
            for i in range(n)]


class DecideTest(unittest.TestCase):
    def decide(self, parent, change, better="lower", bound=0.1):
        pairs = list(zip(parent, change))
        return compare.decide(parent, change, pairs, better, bound)

    def test_clear_improvement(self):
        self.assertEqual(self.decide(runs(100, 1), runs(80, 1)), "improved")

    def test_improvement_for_higher_better(self):
        self.assertEqual(self.decide(runs(100, 1), runs(120, 1), "higher"),
                         "improved")

    def test_same_code_is_unchanged(self):
        parent = runs(100, 2)
        change = list(reversed(parent))
        self.assertEqual(self.decide(parent, change), "unchanged")

    def test_regression_beyond_bound(self):
        self.assertEqual(self.decide(runs(100, 1), runs(130, 1)), "worse")

    def test_regression_within_bound_is_unchanged(self):
        # 5% slower, runs overlapping: within the 10% bound.
        parent = runs(100, 2)
        change = [v * 1.05 for v in reversed(parent)]
        self.assertEqual(self.decide(parent, change), "unchanged")

    def test_wide_spread_is_unresolved(self):
        parent = runs(100, 30)
        change = list(reversed(runs(103, 30)))
        self.assertEqual(self.decide(parent, change), "unresolved")

    def test_too_few_pairs_is_unresolved(self):
        parent, change = [100, 101, 99], [98, 102, 100]
        self.assertEqual(self.decide(parent, change), "unresolved")

    def test_too_few_pairs_claim_no_gain(self):
        # Every change run beats every parent run, but 3 pairs are too few.
        parent = [200, 210, 220]
        change = [100, 150, 190]
        self.assertEqual(self.decide(parent, change), "unresolved")

    def test_every_run_better_despite_spread_is_unchanged(self):
        # Every change run beats every parent run, but the medians lie
        # closer than the parent's wide quartile spread: no gain is
        # claimed, and only unresolved turns into unchanged.
        parent = [100, 101, 102, 103, 104, 196, 197, 198, 199, 200]
        change = [90 + i for i in range(10)]
        self.assertGreater(compare.relative_spread(parent), 0.1)
        self.assertEqual(self.decide(parent, change, bound=0.1), "unchanged")

    def test_gain_needs_a_median_gap_beyond_parent_spread(self):
        # 9 of 10 pairs won, medians apart by more than the parent's
        # quartile spread.
        parent = runs(100, 1)
        change = [v - 5 for v in parent]
        change[0] = parent[0] + 1
        self.assertEqual(self.decide(parent, change), "improved")

    def test_small_consistent_gain_needs_more_than_parent_spread(self):
        # The change wins every pair by 0.5 while the parent spreads over
        # about 6 between its quartiles: no claim, and within the bound.
        parent = runs(100, 3)
        change = [v - 0.5 for v in parent]
        self.assertEqual(self.decide(parent, change), "unchanged")

    def test_no_bound_means_no_decision(self):
        self.assertEqual(self.decide(runs(1, 0.1), runs(2, 0.1), bound=None),
                         "-")


class ReportTest(unittest.TestCase):
    def test_rows_and_exit_signal(self):
        def record(seed, value):
            return {"workload": "w", "seed": seed, "trace": 0,
                    "result": {"correct": True, "attempted": 1, "failed": 0,
                               "metrics": {"lat": {"value": value,
                                                   "unit": "ms"}}}}
        parent = [record(s, 100 + s % 3) for s in range(10)]
        change = [record(s, 150 + s % 3) for s in range(10)]
        out = io.StringIO()
        worse = compare.report(parent, change, {"lat": ("lower", 0.1)}, out)
        self.assertTrue(worse)
        self.assertIn("worse", out.getvalue())

    @staticmethod
    def record(seed, value, correct=True, failed=0, exit=0):
        return {"workload": "w", "seed": seed, "trace": 0, "exit": exit,
                "result": {"correct": correct, "attempted": 10,
                           "failed": failed,
                           "metrics": {"lat": {"value": value,
                                               "unit": "ms"}}}}

    def test_same_runs_are_not_rejected(self):
        parent = [self.record(s, 100 + s % 3) for s in range(10)]
        out = io.StringIO()
        self.assertFalse(compare.report(parent, parent,
                                        {"lat": ("lower", 0.1)}, out))
        self.assertIn("unchanged", out.getvalue())
        self.assertNotIn("FAILED", out.getvalue())

    def test_change_incorrect_on_every_seed_is_rejected(self):
        # Faster, but wrong on every seed: no metric rows, still rejected.
        parent = [self.record(s, 100 + s % 3) for s in range(10)]
        change = [self.record(s, 50, correct=False, failed=1)
                  for s in range(10)]
        out = io.StringIO()
        self.assertTrue(compare.report(parent, change,
                                       {"lat": ("lower", 0.1)}, out))
        self.assertIn("FAILED", out.getvalue())
        self.assertNotIn("improved", out.getvalue())

    def test_change_incorrect_on_one_seed_is_rejected(self):
        parent = [self.record(s, 100 + s % 3) for s in range(10)]
        change = [self.record(s, 60 + s % 3) for s in range(10)]
        change[4] = self.record(4, 60, correct=False, failed=1)
        out = io.StringIO()
        self.assertTrue(compare.report(parent, change,
                                       {"lat": ("lower", 0.1)}, out))
        self.assertIn("FAILED", out.getvalue())

    def test_change_without_result_is_rejected(self):
        parent = [self.record(s, 100) for s in range(10)]
        change = [self.record(s, 100) for s in range(9)]
        change.append({"workload": "w", "seed": 9, "trace": 0, "exit": 1,
                       "result": None})
        out = io.StringIO()
        self.assertTrue(compare.report(parent, change,
                                       {"lat": ("lower", 0.1)}, out))
        self.assertIn("FAILED", out.getvalue())

    def test_incorrect_parent_runs_are_counted_not_compared(self):
        parent = [self.record(s, 100 + s % 3) for s in range(10)]
        parent[0] = self.record(0, 1, correct=False, failed=1)
        change = [self.record(s, 100 + s % 3) for s in range(10)]
        out = io.StringIO()
        self.assertFalse(compare.report(parent, change,
                                         {"lat": ("lower", 0.1)}, out))
        text = out.getvalue()
        self.assertNotIn("FAILED", text)
        # The parent's incorrect run is counted and its value left out.
        self.assertRegex(text, r"w +parent +10 +1 ")
        self.assertIn("101/102", text)

if __name__ == "__main__":
    unittest.main()
