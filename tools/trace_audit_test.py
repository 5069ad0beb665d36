#!/usr/bin/env python3
"""Unit tests for tools/trace_audit.py (stdlib unittest; a ctest entry).

Synthetic c2sl-trace-v1 documents exercise every claim the auditor proves —
replay exactness (ticket uniqueness/density, including the two tickets of a
wide transfer, per-bucket inc sequences, snapshot totals, transfer receipts,
resize monotonicity), real-time
precedence in both witness domains, conservation at transfer cuts, per-lane
order, drop handling, and the disabled-flavour path. The negative control is
the checked-in tools/fixtures/trace_swapped_witness.json: a real-time
precedence violation the auditor MUST refute naming both records (run
through the CLI, asserting exit != 0, exactly as CI runs it).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_audit  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "trace_swapped_witness.json")


def rec(op, t0, t1, key=None, key_b=None, arg=0, result=0, witness=None,
        epoch=None):
    r = {"op": op, "arg": arg, "result": result, "t0_ns": t0, "t1_ns": t1}
    if key is not None:
        r["key"] = key
    if key_b is not None:
        r["key_b"] = key_b
    if witness is not None:
        r["witness"] = witness
    if epoch is not None:
        r["epoch"] = epoch
    return r


def doc(*lanes, dropped=0, enabled=True):
    lane_objs = [{"lane": i, "dropped": 0, "records": list(rs)}
                 for i, rs in enumerate(lanes)]
    if lane_objs and dropped:
        lane_objs[0]["dropped"] = dropped
    return {
        "schema": "c2sl-trace-v1",
        "source": "trace_audit_test",
        "trace_enabled": enabled,
        "initial_shards": 16,
        "ns_per_tick": 1.0,
        "records_total": sum(len(rs) for rs in lanes),
        "dropped_total": dropped,
        "lanes": lane_objs,
    }


def audit(d, slack_ns=0, allow_drops=False):
    return trace_audit.audit(d, slack_ns, allow_drops, verbose=False)


class PassingTraces(unittest.TestCase):
    def test_empty_trace_is_valid(self):
        self.assertTrue(audit(doc([]))["enabled"])

    def test_disabled_flavour_is_vacuously_valid(self):
        self.assertFalse(audit(doc(enabled=False))["enabled"])

    def test_sequential_history_passes(self):
        # One lane: two incs on bucket 3, a snapshot cutting after them, a
        # max_write, a transfer, a final snapshot.
        rs = [
            rec("counter_inc", 10, 20, key=3, arg=1, result=0, witness=0),
            rec("counter_inc", 30, 40, key=3, arg=1, result=1, witness=1),
            rec("snapshot", 50, 60, arg=2, result=2, witness=2),
            rec("max_write", 70, 80, key=5, arg=9, witness=2),
            rec("transfer", 90, 100, key=3, key_b=5, arg=1, result=3,
                witness=3),
            rec("snapshot", 110, 120, arg=2, result=2, witness=4),
        ]
        stats = audit(doc(rs))
        self.assertEqual(stats["journal"], 4)
        self.assertEqual(stats["snapshots"], 2)
        self.assertEqual(stats["transfers"], 1)

    def test_concurrent_overlap_may_commute(self):
        # Overlapping incs on two lanes: journal order opposite to t0 order
        # is legal — they overlap, so either linearization is admissible.
        a = [rec("counter_inc", 0, 100, key=1, arg=1, result=0, witness=1)]
        b = [rec("counter_inc", 50, 60, key=2, arg=1, result=0, witness=0)]
        audit(doc(a, b))

    def test_slack_absorbs_small_skew(self):
        # a responded 5ns before b invoked but with the larger ticket: fails
        # at slack 0, passes once slack covers the gap (TSC skew).
        a = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=1)]
        b = [rec("counter_inc", 15, 30, key=2, arg=1, result=0, witness=0)]
        with self.assertRaisesRegex(trace_audit.Refuted, "precedence"):
            audit(doc(a, b))
        audit(doc(a, b), slack_ns=10)

    def test_aggregates_pass_with_bounds(self):
        rs = [
            rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
            rec("counter_sum", 20, 30, result=1, witness=1),
            rec("max_write", 40, 50, key=2, arg=7, witness=1),
            rec("global_max", 60, 70, result=7, witness=7),
        ]
        self.assertEqual(audit(doc(rs))["aggregates"], 2)

    def test_resize_sequence_passes(self):
        rs = [
            rec("resize", 0, 10, arg=32, result=1, witness=0, epoch=1),
            rec("resize", 20, 30, arg=64, result=1, witness=1, epoch=2),
            # With resizes present the per-bucket prev check is off: a fresh
            # per-epoch shard counter may repeat prev 0.
            rec("counter_inc", 40, 50, key=1, arg=1, result=0, witness=2),
            rec("counter_inc", 60, 70, key=1, arg=1, result=0, witness=3),
        ]
        self.assertEqual(audit(doc(rs))["resizes"], 2)

    def test_wide_transfers_own_two_tickets(self):
        # Amounts outside [-4096, 4095] draw tickets t and t+1 in one FAA;
        # the next journal witness is t+2 and no tail lands on t+1.
        rs = [
            rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
            rec("transfer", 20, 30, key=1, key_b=2, arg=5000, result=1,
                witness=1),
            rec("snapshot", 40, 50, result=1, witness=3),
            rec("counter_inc", 60, 70, key=2, arg=1, result=0, witness=3),
            rec("transfer", 80, 90, key=2, key_b=1, arg=-4097, result=4,
                witness=4),
            rec("snapshot", 100, 110, result=2, witness=6),
        ]
        self.assertEqual(audit(doc(rs))["transfers"], 2)

    def test_repeated_snapshot_tail_is_legal(self):
        rs = [
            rec("snapshot", 0, 10, result=0, witness=0),
            rec("snapshot", 20, 30, result=0, witness=0),
        ]
        audit(doc(rs))


class RefutedTraces(unittest.TestCase):
    def refute(self, d, pattern, **kw):
        with self.assertRaisesRegex(trace_audit.Refuted, pattern):
            audit(d, **kw)

    def test_duplicate_ticket(self):
        a = [rec("counter_inc", 0, 100, key=1, arg=1, result=0, witness=0)]
        b = [rec("counter_inc", 20, 90, key=2, arg=1, result=0, witness=0)]
        self.refute(doc(a, b), "duplicate journal ticket")

    def test_ticket_gap(self):
        rs = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
              rec("counter_inc", 20, 30, key=2, arg=1, result=0, witness=2)]
        self.refute(doc(rs), "gap at 1")

    def test_inline_transfer_leaves_a_gap(self):
        # The same ticket layout as test_wide_transfers_own_two_tickets, but
        # 4095 fits the journal cell, so ticket 2 belongs to no append.
        rs = [
            rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
            rec("transfer", 20, 30, key=1, key_b=2, arg=4095, result=1,
                witness=1),
            rec("counter_inc", 60, 70, key=2, arg=1, result=0, witness=3),
        ]
        self.refute(doc(rs), "gap at 2")

    def test_record_inside_a_wide_transfer(self):
        rs = [rec("transfer", 0, 10, key=1, key_b=2, arg=-5000, result=0,
                  witness=0),
              rec("counter_inc", 20, 30, key=2, arg=1, result=0, witness=1)]
        self.refute(doc(rs), "second ticket of wide transfer")

    def test_snapshot_tail_inside_a_wide_transfer(self):
        rs = [rec("transfer", 0, 10, key=1, key_b=2, arg=9999, result=0,
                  witness=0),
              rec("snapshot", 20, 30, result=0, witness=1)]
        self.refute(doc(rs), "inside wide transfer")

    def test_inc_prev_not_a_permutation(self):
        rs = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
              rec("counter_inc", 20, 30, key=1, arg=1, result=0, witness=1)]
        self.refute(doc(rs), "not a permutation")

    def test_snapshot_total_mismatch(self):
        # The snapshot's tail cuts between the two incs; its recorded total
        # claims both. Overlapping intervals keep precedence out of the way.
        a = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
              rec("counter_inc", 20, 30, key=2, arg=1, result=0, witness=1)]
        b = [rec("snapshot", 5, 200, result=2, witness=1)]
        self.refute(doc(a, b), "snapshot does not match")

    def test_trailing_snapshot_total_mismatch(self):
        rs = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
              rec("snapshot", 20, 30, result=0, witness=1)]
        self.refute(doc(rs), "full witnessed history")

    def test_transfer_receipt_mismatch(self):
        rs = [rec("transfer", 0, 10, key=1, key_b=2, arg=5, result=9,
                  witness=0)]
        self.refute(doc(rs), "its own ticket")

    def test_resize_epoch_regression(self):
        rs = [rec("resize", 0, 10, arg=32, witness=0, epoch=2),
              rec("resize", 20, 30, arg=64, witness=1, epoch=1)]
        self.refute(doc(rs), "resize sequence not monotone")

    def test_per_lane_witness_regression(self):
        rs = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=1),
              rec("counter_inc", 20, 30, key=2, arg=1, result=0, witness=0)]
        self.refute(doc(rs), "per-lane witness order")

    def test_per_lane_time_regression(self):
        rs = [rec("counter_read", 100, 110, key=1),
              rec("counter_read", 50, 60, key=1)]
        self.refute(doc(rs), "t0 went backwards")

    def test_cross_lane_precedence_snapshot_vs_write(self):
        # Snapshot tail 1 claims to cut AFTER the inc with ticket 1... but
        # tail 1 means position 2 > 3? No: write pos 2*1+1=3, tail pos 2*1=2
        # — the snapshot at tail 1 precedes the ticket-1 inc. If the inc
        # RESPONDED before the snapshot invoked, that is a violation.
        a = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
             rec("counter_inc", 20, 30, key=2, arg=1, result=0, witness=1)]
        b = [rec("snapshot", 100, 110, result=1, witness=1)]
        self.refute(doc(a, b), "precedence")

    def test_aggregate_monotonicity(self):
        rs = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
              rec("counter_inc", 20, 30, key=1, arg=1, result=1, witness=1)]
        sums = [rec("counter_sum", 40, 50, result=2, witness=2),
                rec("counter_sum", 60, 70, result=1, witness=1)]
        self.refute(doc(rs, sums), "counter-sum digest")

    def test_aggregate_result_is_witness(self):
        rs = [rec("counter_sum", 0, 10, result=3, witness=2)]
        self.refute(doc(rs), "digest value read IS the witness")

    def test_counter_sum_bounds(self):
        # Digest claims 2 incs but only one inc exists anywhere in the trace.
        rs = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=0),
              rec("counter_sum", 20, 30, result=2, witness=2)]
        self.refute(doc(rs), "outside its real-time bounds")

    def test_global_max_bounds(self):
        rs = [rec("max_write", 0, 10, key=1, arg=5, witness=0),
              rec("global_max", 20, 30, result=9, witness=9)]
        self.refute(doc(rs), "outside its real-time bounds")

    def test_drops_fail_without_flag(self):
        d = doc([rec("counter_inc", 0, 10, key=1, arg=1, result=0,
                     witness=0)], dropped=3)
        self.refute(d, "dropped to ring overflow|records dropped")

    def test_allow_drops_keeps_order_checks(self):
        # With drops allowed: density/totals checks are off (gap at ticket 1
        # tolerated), but precedence still refutes.
        a = [rec("counter_inc", 0, 10, key=1, arg=1, result=0, witness=2)]
        b = [rec("counter_inc", 100, 110, key=2, arg=1, result=0, witness=0)]
        audit(doc(a, dropped=1), allow_drops=True)
        self.refute(doc(a, b, dropped=1), "precedence", allow_drops=True)


class FixtureNegativeControl(unittest.TestCase):
    """The checked-in swapped-witness fixture must be refuted via the CLI."""

    def cli(self, path, *flags):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "trace_audit.py"), path,
             *flags],
            capture_output=True, text=True)

    def test_fixture_is_refuted_naming_the_pair(self):
        p = self.cli(FIXTURE)
        self.assertNotEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("REFUTED", p.stderr)
        # Both halves of the violating pair are named: lane 0's inc carries
        # witness 1, lane 1's carries witness 0.
        self.assertIn("lane 0", p.stderr)
        self.assertIn("lane 1", p.stderr)
        self.assertIn("witness=1", p.stderr)
        self.assertIn("witness=0", p.stderr)

    def test_unswapping_the_fixture_passes(self):
        with open(FIXTURE) as f:
            d = json.load(f)
        # Swap the witnesses back: lane 0's inc happened first in real time.
        incs = [r for l in d["lanes"] for r in l["records"]
                if r["op"] == "counter_inc"]
        self.assertEqual(len(incs), 2)
        incs[0]["witness"], incs[1]["witness"] = (incs[1]["witness"],
                                                  incs[0]["witness"])
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(d, f)
            tmp = f.name
        try:
            p = self.cli(tmp)
            self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
            self.assertIn("OK", p.stdout)
        finally:
            os.unlink(tmp)

    def test_malformed_input_exits_2(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write("{\"schema\": \"nope\"}")
            tmp = f.name
        try:
            p = self.cli(tmp)
            self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        finally:
            os.unlink(tmp)


class SchemaErrors(unittest.TestCase):
    def test_records_total_mismatch_dies(self):
        d = doc([rec("counter_read", 0, 10, key=1)])
        d["records_total"] = 5
        with self.assertRaises(SystemExit):
            audit(d)


if __name__ == "__main__":
    unittest.main()
