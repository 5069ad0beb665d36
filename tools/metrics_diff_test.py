#!/usr/bin/env python3
"""Unit tests for tools/metrics_diff.py (stdlib unittest; a ctest entry).

Covers: structural validation (schema, op-count coverage, histogram
consistency, the one-scan totals invariant, handoff accounting), the
disabled-flavour path, and the diff gates (monotone op counts).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics_diff  # noqa: E402


def snapshot(**overrides):
    """A minimal valid enabled snapshot; override leaf sections per test."""
    doc = {
        "schema": "c2sl-metrics-v1",
        "source": "metrics_diff_test",
        "telemetry_enabled": True,
        "lanes": 2,
        "ops_total": 12,
        "op_counts": {k: 0 for k in metrics_diff.OP_KINDS},
        "op_latency_ns": {},
        "open_wait_ns": {"count": 0, "p50_upper_ns": 0, "p90_upper_ns": 0,
                         "p99_upper_ns": 0, "max_upper_ns": 0, "buckets": []},
        "session": {k: 0 for k in metrics_diff.SESSION_KEYS},
        "events": {k: 0 for k in metrics_diff.EVENT_KINDS},
        "shard_ops": [4, 2, 4],
        "shard_imbalance": 1.2,
    }
    doc["op_counts"]["counter_inc"] = 10
    doc["op_counts"]["session_open"] = 2
    doc.update(overrides)
    return doc


def hist(pairs):
    counts = sum(c for _, c in pairs)
    uppers = [u for u, _ in pairs]

    def quantile(q):
        if counts == 0:
            return 0
        target = int(q * counts)
        if target < q * counts:
            target += 1
        target = max(1, min(counts, target))
        seen = 0
        for u, c in pairs:
            seen += c
            if seen >= target:
                return u
        return uppers[-1]

    return {"count": counts, "p50_upper_ns": quantile(0.50),
            "p90_upper_ns": quantile(0.90), "p99_upper_ns": quantile(0.99),
            "max_upper_ns": uppers[-1] if pairs else 0,
            "buckets": [[u, c] for u, c in pairs]}


class ValidateTest(unittest.TestCase):
    def assert_invalid(self, doc, fragment):
        with self.assertRaises(metrics_diff.Invalid) as ctx:
            metrics_diff.validate(doc, "t")
        self.assertIn(fragment, str(ctx.exception))

    def test_valid_snapshot_passes(self):
        metrics_diff.validate(snapshot(), "t")

    def test_wrong_schema_rejected(self):
        self.assert_invalid(snapshot(schema="c2sl-bench-v1"), "schema")

    def test_missing_op_kind_rejected(self):
        doc = snapshot()
        del doc["op_counts"]["tas_reset"]
        self.assert_invalid(doc, "tas_reset")

    def test_negative_count_rejected(self):
        doc = snapshot()
        doc["op_counts"]["max_read"] = -1
        self.assert_invalid(doc, "max_read")

    def test_totals_must_come_from_one_scan(self):
        # ops_total and the op_counts sum are one lane scan: any disagreement
        # means the producer mixed two reads.
        self.assert_invalid(snapshot(ops_total=13), "disagree")

    def test_legacy_ops_total_scan_still_checked(self):
        # Snapshots written before the field was retired carry it; it is the
        # same lane-scan total and must agree when present.
        metrics_diff.validate(snapshot(ops_total_scan=12), "t")
        self.assert_invalid(snapshot(ops_total_scan=11), "disagree")
        self.assert_invalid(snapshot(ops_total_scan=-1), "ops_total_scan")

    def test_legacy_session_counters_still_checked(self):
        # Snapshots written before the lane-ticket dispenser and the per-lane
        # sum cells were retired carry their counters; when present they must
        # still be counts, and their absence is not an error.
        legacy = {k: 0 for k in metrics_diff.SESSION_KEYS}
        legacy.update(lane_tickets=4, lane_counter_adds=10)
        metrics_diff.validate(snapshot(session=legacy), "t")
        for key in metrics_diff.LEGACY_SESSION_KEYS:
            self.assertNotIn(key, snapshot()["session"])
            bad = dict(legacy, **{key: -1})
            self.assert_invalid(snapshot(session=bad), key)

    def test_disabled_snapshot_skips_totals_check(self):
        doc = snapshot(telemetry_enabled=False, ops_total=0)
        metrics_diff.validate(doc, "t")

    def test_histogram_count_must_match_buckets(self):
        h = hist([(127, 3), (255, 1)])
        h["count"] = 5
        self.assert_invalid(snapshot(open_wait_ns=h), "sum of buckets")

    def test_histogram_uppers_must_increase(self):
        h = hist([(255, 1), (127, 1)])
        self.assert_invalid(snapshot(open_wait_ns=h), "not > previous")

    def test_histogram_quantiles_must_be_monotone(self):
        h = hist([(127, 4)])
        h["p99_upper_ns"] = 63
        self.assert_invalid(snapshot(open_wait_ns=h), "not monotone")

    def test_unknown_latency_op_rejected(self):
        doc = snapshot()
        doc["op_latency_ns"]["warp_drive"] = hist([(127, 1)])
        self.assert_invalid(doc, "warp_drive")

    def test_handoff_accounting(self):
        doc = snapshot()
        doc["session"]["handoff_deliveries"] = 3
        doc["session"]["handoff_enqueued"] = 2
        self.assert_invalid(doc, "deliveries")

    def test_publish_without_claim_rejected(self):
        doc = snapshot()
        doc["events"]["resize_claims"] = 1
        doc["events"]["epochs_published"] = 2
        self.assert_invalid(doc, "one-shot claim")
        # Claims without publishes are fine: poisoned/abandoned resizes.
        doc["events"]["epochs_published"] = 0
        metrics_diff.validate(doc, "t")

    def test_shard_ops_sum_must_not_exceed_ops_total(self):
        doc = snapshot(shard_ops=[10, 10, 10], shard_imbalance=1.0)
        self.assert_invalid(doc, "exceeds ops_total")

    def test_shard_imbalance_below_one_rejected(self):
        doc = snapshot(shard_ops=[0, 0, 0], shard_imbalance=0.5)
        self.assert_invalid(doc, "< 1.0")

    def test_shard_imbalance_must_match_its_array(self):
        doc = snapshot(shard_imbalance=3.0)  # shard_ops [4,2,4] -> 1.2
        self.assert_invalid(doc, "does not match its own shard_ops")

    def test_empty_shard_ops_with_unit_imbalance_passes(self):
        metrics_diff.validate(snapshot(shard_ops=[], shard_imbalance=1.0), "t")

    def test_negative_shard_bucket_rejected(self):
        doc = snapshot(shard_ops=[4, -2, 4])
        self.assert_invalid(doc, "bucket 1")

    def test_legacy_prim_profile_rows_checked(self):
        doc = snapshot(prim_profile={"counter_inc":
                                     {"faa": 2.0, "tas": 1.0, "swap": 0,
                                      "ops": 256}})
        metrics_diff.validate(doc, "t")
        doc["prim_profile"]["counter_inc"]["ops"] = 0
        self.assert_invalid(doc, "averaged")


class CliTest(unittest.TestCase):
    def run_cli(self, docs, *flags):
        paths = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, doc in enumerate(docs):
                p = os.path.join(tmp, f"m{i}.json")
                with open(p, "w") as f:
                    json.dump(doc, f)
                paths.append(p)
            proc = subprocess.run(
                [sys.executable, metrics_diff.__file__, *paths, *flags],
                capture_output=True, text=True)
        return proc

    def test_validate_mode_accepts_valid(self):
        proc = self.run_cli([snapshot()])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("valid c2sl-metrics-v1", proc.stdout)

    def test_validate_mode_rejects_malformed(self):
        proc = self.run_cli([{"schema": "nope"}])
        self.assertEqual(proc.returncode, 2)

    def test_diff_prints_deltas(self):
        curr = copy.deepcopy(snapshot())
        curr["ops_total"] = 14
        curr["op_counts"]["counter_inc"] = 12
        proc = self.run_cli([snapshot(), curr])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("counter_inc", proc.stdout)
        self.assertIn("+2", proc.stdout)

    def test_gate_monotone_fails_on_backwards_counter(self):
        curr = copy.deepcopy(snapshot())
        curr["op_counts"]["counter_inc"] = 4
        curr["ops_total"] = 6
        curr["shard_ops"] = [2, 1, 2]  # keep the heat sum within ops_total
        curr["shard_imbalance"] = 1.2
        proc = self.run_cli([snapshot(), curr], "--gate-monotone")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("backwards", proc.stderr)
        # Without the gate the same diff is informational.
        proc = self.run_cli([snapshot(), curr])
        self.assertEqual(proc.returncode, 0)

    def test_gate_monotone_fails_on_backwards_migrated_keys(self):
        base = snapshot()
        base["events"]["migrated_keys"] = 7
        curr = copy.deepcopy(snapshot())
        curr["events"]["migrated_keys"] = 3
        proc = self.run_cli([base, curr], "--gate-monotone")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("backwards", proc.stderr)

    def test_gate_monotone_tolerates_backwards_claim_attempts(self):
        # Claim counters record racy ATTEMPTS — two runs of one workload can
        # land on either side of each other without a telemetry bug.
        base = snapshot()
        base["events"]["resize_claims"] = 5
        curr = copy.deepcopy(snapshot())
        curr["events"]["resize_claims"] = 2
        proc = self.run_cli([base, curr], "--gate-monotone")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_disabled_snapshot_diff_is_a_note_not_an_error(self):
        off = snapshot(telemetry_enabled=False, ops_total=0,
                       op_counts={k: 0 for k in metrics_diff.OP_KINDS})
        proc = self.run_cli([snapshot(), off])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("nothing to diff", proc.stdout)


if __name__ == "__main__":
    unittest.main()
