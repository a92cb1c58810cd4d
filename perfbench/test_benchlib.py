"""Tests of the benchmark's helpers: span self time and the quartile
spread. Run with `python3 perfbench/test_benchlib.py`."""

import statistics
import unittest

import benchlib


class SelfTimeTest(unittest.TestCase):
    def test_leaf_span_owns_its_whole_duration(self):
        self.assertEqual(benchlib.self_times([("a", 10, 25, -1)]), {"a": 15})

    def test_parent_minus_back_to_back_children(self):
        spans = [("root", 0, 100, -1),
                 ("x", 10, 30, 0),
                 ("y", 30, 60, 0)]  # starts exactly where x ends
        self.assertEqual(benchlib.self_times(spans),
                         {"root": 50, "x": 20, "y": 30})

    def test_nested_children_count_against_their_direct_parent(self):
        spans = [("root", 0, 100, -1),
                 ("mid", 10, 90, 0),
                 ("leaf", 20, 40, 1),
                 ("leaf", 50, 60, 1)]
        self.assertEqual(benchlib.self_times(spans),
                         {"root": 20, "mid": 50, "leaf": 30})

    def test_same_name_sums_across_spans(self):
        spans = [("root", 0, 10, -1), ("step", 0, 3, 0),
                 ("root", 20, 30, -1), ("step", 25, 30, 2)]
        self.assertEqual(benchlib.self_times(spans), {"root": 12, "step": 8})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [("root", 0, 100, -1),
                 ("a", 10, 50, 0),
                 ("b", 40, 70, 0),
                 ("c", 90, 120, 0)]  # runs past the parent's end
        self.assertEqual(benchlib.self_times(spans)["root"], 100 - 60 - 10)


class OrderStatisticsTest(unittest.TestCase):
    def test_quartile_spread_hand_computed(self):
        # quantiles(n=4) of 1..5: q1 = 1.5, q3 = 4.5; median 3.
        self.assertAlmostEqual(benchlib.quartile_spread([5, 1, 4, 2, 3]),
                               1.0)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_quartile_spread_of_constant_values_is_zero(self):
        self.assertEqual(benchlib.quartile_spread([2.0] * 5), 0.0)


if __name__ == "__main__":
    unittest.main()
