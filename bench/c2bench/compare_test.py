#!/usr/bin/env python3
"""Unit tests for compare.py on synthetic run sets."""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # importing compare must leave no __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "workloads": [{"name": "ingest", "why": ""}],
    "end_to_end": [
        {"name": "throughput_mops", "unit": "Mops/s", "better": "higher", "bound": 0.05},
        {"name": "update_p50_ns", "unit": "ns", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [{"name": "telemetry.opscope_ns", "unit": "ns", "better": "lower"}],
}


def records(values_by_metric, trace=0, correct=None, failed=None):
    n = len(next(iter(values_by_metric.values())))
    correct = correct or [True] * n
    failed = failed or [0] * n
    return [{"workload": "ingest", "trace": trace,
             "result": {"correct": correct[i], "attempted": 1000, "failed": failed[i],
                        "metrics": {k: {"value": v[i], "unit": ""}
                                    for k, v in values_by_metric.items()}
                        if correct[i] else {}}}
            for i in range(n)]


def row(rows, metric):
    return next(r for r in rows if r["metric"] == metric)


def verdict(parent, change, direction, bound):
    """The verdict with the win share taken over the i-th-run pairs."""
    wins = compare.win_share(list(zip(parent, change)), direction)
    return compare.verdict(parent, change, direction, bound, wins)


class CompareTest(unittest.TestCase):
    def test_clear_win(self):
        parent = [5.00, 5.02, 4.98, 5.01, 4.99, 5.00, 5.01, 4.99, 5.02, 4.98]
        change = [v * 1.10 for v in parent]
        self.assertEqual(verdict(parent, change, "higher", 0.05), "improved")
        self.assertEqual(compare.win_share(list(zip(parent, change)), "higher"), 1.0)
        # The same gain read as latency (lower is better).
        self.assertEqual(verdict(change, parent, "lower", 0.05), "improved")

    def test_clear_loss(self):
        parent = [500, 502, 498, 501, 499, 500, 501, 499, 502, 498]
        change = [v * 1.2 for v in parent]
        self.assertEqual(verdict(parent, change, "lower", 0.05), "worse")
        self.assertEqual(compare.win_share(list(zip(parent, change)), "lower"), 0.0)

    def test_noisy_set_is_unresolved(self):
        parent = [5.0, 6.5, 4.1, 5.9, 4.4, 6.2, 4.0, 5.5, 4.8, 6.6]
        change = [5.1, 4.0, 6.4, 4.2, 6.1, 4.6, 5.8, 4.3, 6.3, 5.0]
        self.assertGreater(compare.spread(parent), 0.05)
        self.assertEqual(verdict(parent, change, "higher", 0.05), "unresolved")

    def test_noisy_but_every_change_run_better_is_resolved(self):
        parent = [4.0, 4.6, 4.2, 4.8, 4.1]
        change = [6.0, 6.9, 6.2, 7.1, 6.5]
        self.assertNotEqual(verdict(parent, change, "higher", 0.05), "unresolved")

    def test_ties_count_for_neither_side(self):
        parent = [5.0, 5.0, 5.1, 5.0]
        change = [5.0, 5.0, 5.1, 5.0]
        pairs = list(zip(parent, change))
        self.assertEqual(compare.win_share(pairs, "higher"), 0.0)
        self.assertEqual(compare.win_share([(c, p) for p, c in pairs], "higher"), 0.0)
        self.assertEqual(verdict(parent, change, "higher", 0.05), "unchanged")
        # Half ties, half wins: the ties do not count as wins.
        self.assertEqual(
            compare.win_share([(5.0, 5.0), (5.0, 5.0), (5.0, 6.0), (5.0, 6.0)], "higher"), 0.5)

    def test_rows_per_metric_and_per_layer_deltas(self):
        parent = records({"throughput_mops": [5.0, 5.01, 4.99, 5.0, 5.02],
                          "update_p50_ns": [500, 501, 499, 500, 502]})
        change = records({"throughput_mops": [5.0, 5.01, 4.99, 5.0, 5.02],
                          "update_p50_ns": [700, 701, 699, 700, 702]})
        parent += records({"telemetry.opscope_ns": [100, 101, 99]}, trace=1)
        change += records({"telemetry.opscope_ns": [80, 81, 79]}, trace=1)
        rows = compare.compare(parent, change, BENCH)
        self.assertEqual(row(rows, "correctness")["verdict"], "unchanged")
        self.assertEqual(row(rows, "throughput_mops")["verdict"], "unchanged")
        self.assertEqual(row(rows, "update_p50_ns")["verdict"], "worse")
        layer = row(rows, "telemetry.opscope_ns")
        self.assertIsNone(layer["verdict"])
        self.assertAlmostEqual(layer["delta"], -0.2)

    def test_an_incorrect_change_run_is_worse(self):
        values = {"throughput_mops": [5.0, 5.01, 4.99, 5.0, 5.02],
                  "update_p50_ns": [500, 501, 499, 500, 502]}
        parent = records(values)
        change = records(values, correct=[True, True, False, True, True])
        rows = compare.compare(parent, change, BENCH)
        self.assertEqual(row(rows, "correctness")["verdict"], "worse")
        self.assertEqual(row(rows, "correctness")["incorrect"], (0, 1))
        # The metric rows use the runs that passed, paired by run index: the
        # incorrect third run drops its pair and shifts no other pair.
        self.assertEqual(row(rows, "throughput_mops")["runs"], (5, 4))
        self.assertEqual(row(rows, "throughput_mops")["wins"], 0.0)

    def test_more_failed_calls_is_worse(self):
        values = {"throughput_mops": [5.0, 5.01, 4.99, 5.0, 5.02]}
        parent = records(values, failed=[1, 0, 0, 0, 0])
        change = records(values, failed=[0, 2, 0, 1, 0])
        self.assertEqual(row(compare.compare(parent, change, BENCH), "correctness")["verdict"],
                         "worse")
        self.assertEqual(row(compare.compare(change, parent, BENCH), "correctness")["verdict"],
                         "unchanged")

    def test_pairs_align_by_run_index(self):
        # The change beats the parent in every pair; misaligned pairs would
        # pit change run i against parent run i+1 and lose some.
        parent = records({"throughput_mops": [4.0, 6.0, 4.0, 6.0, 4.0],
                          "update_p50_ns": [500, 500, 500, 500, 500]},
                         correct=[True, False, True, True, True])
        change = records({"throughput_mops": [4.1, 6.1, 4.1, 6.1, 4.1],
                          "update_p50_ns": [500, 500, 500, 500, 500]})
        rows = compare.compare(parent, change, BENCH)
        self.assertEqual(row(rows, "throughput_mops")["wins"], 1.0)


if __name__ == "__main__":
    unittest.main()
