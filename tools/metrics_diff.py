#!/usr/bin/env python3
"""Validate c2sl-metrics-v1 snapshots and diff two of them.

    tools/metrics_diff.py SNAPSHOT.json                 # validate only
    tools/metrics_diff.py BASELINE.json CURRENT.json    # validate + diff

Validation checks the snapshot's structural invariants, not just its shape:

  * schema == "c2sl-metrics-v1", source present, telemetry_enabled boolean.
  * op_counts covers every known op kind with non-negative integers.
  * ops_total is the same one-pass lane scan as op_counts, so on an enabled
    snapshot ops_total == sum of op_counts, whether or not writers were live
    when it was taken. Snapshots written before the field was retired also
    carry ops_total_scan, the same total; when present it must agree too.
  * every histogram is internally consistent: bucket uppers strictly
    increasing, counts non-negative, reported count == sum of buckets, and
    quantile upper bounds monotone in q (p50 <= p90 <= p99 <= max).
  * session counters are non-negative and obey the handoff-queue accounting
    the stress tests bound: deliveries <= enqueued, revocations <= enqueued.
    Snapshots written before the lane-ticket dispenser and the per-lane sum
    cells were retired also carry lane_tickets and lane_counter_adds; when
    present they must be non-negative counts too.
  * prim_profile rows (only in snapshots from before the field was retired)
    have non-negative averages and ops > 0.
  * events obey the routing-epoch spine's accounting: epochs_published <=
    resize_claims (every publish follows a successful one-shot claim;
    poisoned or abandoned claims never publish). Under --gate-monotone the
    diff additionally requires migrated_keys not to go backwards — migration
    only ever copies state forward into child shards.

A disabled-build snapshot (telemetry_enabled == false) is VALID — it just has
nothing to diff; diffing one exits 0 with a note (so the CI smoke invocation
works on both flavours).

Diff mode prints per-counter deltas (current - baseline) for ops_total,
op_counts, session counters and events, plus histogram drift (count
delta and p50/p99 upper-bound movement) for op latencies and open_wait.
Counters in a metrics snapshot are cumulative per process run, not per store
lifetime, so a NEGATIVE delta between two runs of the same workload flags a
lost-update bug in the telemetry layer: --gate-monotone turns any negative
op-count delta into exit 1 (CI's smoke uses it on two runs of
examples/c2store_demo.cpp with one configuration; directions must not
differ).

Exit status: 0 valid (and gates pass), 1 a gate failed, 2 malformed input.
No dependencies beyond the standard library.
"""

import argparse
import json
import sys

OP_KINDS = [
    "max_write", "max_read", "counter_inc", "counter_read",
    "tas_set", "tas_read", "tas_reset", "set_put", "set_take",
    "global_max", "counter_sum",
    "snapshot", "transfer", "session_open",
]

EVENT_KINDS = [
    "segment_claims", "segment_publishes", "shard_inits",
    "resize_claims", "epochs_published", "migrated_keys",
]

# Events that may only grow between two runs of one workload configuration
# under --gate-monotone. Deliberately NOT every event: claim counters
# (segment_claims, resize_claims) count racy ATTEMPTS, so two runs of the
# same workload can legitimately land on either side of each other. A key,
# once migrated into a child shard, is never un-migrated — that direction is
# part of the epoch hand-off's monotonicity argument (docs/PROOFS.md).
MONOTONE_EVENTS = {"migrated_keys"}

SESSION_KEYS = [
    "handoff_enqueued", "handoff_deliveries", "handoff_parks",
    "handoff_revocations",
]

# Session counters of older snapshots: validated as counts when present.
LEGACY_SESSION_KEYS = ["lane_tickets", "lane_counter_adds"]


class Invalid(ValueError):
    pass


def _require(cond, path, msg):
    if not cond:
        raise Invalid(f"{path}: {msg}")


def _is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate_histogram(hist, where):
    _require(isinstance(hist, dict), where, "histogram must be an object")
    for key in ("count", "p50_upper_ns", "p90_upper_ns", "p99_upper_ns",
                "max_upper_ns", "buckets"):
        _require(key in hist, where, f"missing {key!r}")
    _require(_is_count(hist["count"]), where, "count must be a non-negative int")
    buckets = hist["buckets"]
    _require(isinstance(buckets, list), where, "buckets must be an array")
    total = 0
    prev_upper = None
    for i, b in enumerate(buckets):
        _require(isinstance(b, list) and len(b) == 2, where,
                 f"bucket {i} must be an [upper_ns, count] pair")
        upper, count = b
        _require(isinstance(upper, int) and not isinstance(upper, bool), where,
                 f"bucket {i} upper bound must be an int")
        _require(_is_count(count) and count > 0, where,
                 f"bucket {i} count must be a positive int (empty buckets are "
                 "elided)")
        if prev_upper is not None:
            _require(upper > prev_upper, where,
                     f"bucket {i} upper {upper} not > previous {prev_upper}")
        prev_upper = upper
        total += count
    _require(total == hist["count"], where,
             f"count {hist['count']} != sum of buckets {total}")
    q = [hist["p50_upper_ns"], hist["p90_upper_ns"], hist["p99_upper_ns"],
         hist["max_upper_ns"]]
    for v in q:
        _require(isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                 where, "quantile upper bounds must be non-negative ints")
    _require(q == sorted(q), where,
             f"quantile upper bounds not monotone: p50/p90/p99/max = {q}")
    if hist["count"] == 0:
        _require(q == [0, 0, 0, 0], where,
                 "an empty histogram must report all-zero quantiles")


def validate(doc, path):
    _require(isinstance(doc, dict), path, "snapshot must be a JSON object")
    _require(doc.get("schema") == "c2sl-metrics-v1", path,
             f"schema is {doc.get('schema')!r}, want 'c2sl-metrics-v1'")
    _require(isinstance(doc.get("source"), str) and doc["source"], path,
             "source must be a non-empty string")
    enabled = doc.get("telemetry_enabled")
    _require(isinstance(enabled, bool), path,
             "telemetry_enabled must be a boolean")

    for key in ("lanes", "ops_total"):
        _require(_is_count(doc.get(key)), path,
                 f"{key} must be a non-negative int")
    legacy_scan = doc.get("ops_total_scan")
    if legacy_scan is not None:
        _require(_is_count(legacy_scan), path,
                 "ops_total_scan must be a non-negative int")

    ops = doc.get("op_counts")
    _require(isinstance(ops, dict), path, "op_counts must be an object")
    for kind in OP_KINDS:
        _require(kind in ops, f"{path}:op_counts", f"missing op kind {kind!r}")
        _require(_is_count(ops[kind]), f"{path}:op_counts",
                 f"{kind} must be a non-negative int")
    if enabled:
        counted = sum(ops[kind] for kind in OP_KINDS)
        _require(doc["ops_total"] == counted, path,
                 f"totals disagree: ops_total {doc['ops_total']}, op_counts "
                 f"sum {counted} (both come from one lane scan)")
        _require(legacy_scan is None or legacy_scan == counted, path,
                 f"totals disagree: ops_total_scan {legacy_scan}, op_counts "
                 f"sum {counted} (both come from one lane scan)")

    lat = doc.get("op_latency_ns")
    _require(isinstance(lat, dict), path, "op_latency_ns must be an object")
    for kind, hist in lat.items():
        _require(kind in OP_KINDS, f"{path}:op_latency_ns",
                 f"unknown op kind {kind!r}")
        validate_histogram(hist, f"{path}:op_latency_ns:{kind}")
    _require("open_wait_ns" in doc, path, "missing open_wait_ns")
    validate_histogram(doc["open_wait_ns"], f"{path}:open_wait_ns")

    session = doc.get("session")
    _require(isinstance(session, dict), path, "session must be an object")
    for key in SESSION_KEYS:
        _require(key in session, f"{path}:session", f"missing {key!r}")
    for key in SESSION_KEYS + LEGACY_SESSION_KEYS:
        _require(key not in session or _is_count(session[key]),
                 f"{path}:session", f"{key} must be a non-negative int")
    _require(session["handoff_deliveries"] <= session["handoff_enqueued"],
             f"{path}:session", "more handoff deliveries than enqueues")
    _require(session["handoff_revocations"] <= session["handoff_enqueued"],
             f"{path}:session", "more handoff revocations than enqueues")

    events = doc.get("events")
    _require(isinstance(events, dict), path, "events must be an object")
    for kind in EVENT_KINDS:
        _require(kind in events, f"{path}:events", f"missing event {kind!r}")
        _require(_is_count(events[kind]), f"{path}:events",
                 f"{kind} must be a non-negative int")
    _require(events["epochs_published"] <= events["resize_claims"],
             f"{path}:events",
             f"more epoch publishes ({events['epochs_published']}) than "
             f"resize claims ({events['resize_claims']}): every publish "
             "follows a successful one-shot claim (poisoned or abandoned "
             "claims never publish)")

    # Per-shard heat gauges: keyed ops per routing bucket plus the
    # max-over-mean skew. Aggregate ops carry no shard, so the bucket sum can
    # only undershoot ops_total; the reported imbalance must match the array
    # it summarises and is >= 1.0 by construction (max >= mean).
    shard_ops = doc.get("shard_ops")
    _require(isinstance(shard_ops, list), path, "shard_ops must be an array")
    for i, v in enumerate(shard_ops):
        _require(_is_count(v), f"{path}:shard_ops",
                 f"bucket {i} must be a non-negative int")
    imbalance = doc.get("shard_imbalance")
    _require(isinstance(imbalance, (int, float))
             and not isinstance(imbalance, bool), path,
             "shard_imbalance must be a number")
    if enabled:
        _require(sum(shard_ops) <= doc["ops_total"], path,
                 f"shard_ops sum {sum(shard_ops)} exceeds ops_total "
                 f"{doc['ops_total']} (aggregate ops carry no shard; the "
                 "bucket sum can only undershoot)")
        _require(imbalance >= 1.0 - 1e-9, path,
                 f"shard_imbalance {imbalance} < 1.0 (max-over-mean cannot "
                 "dip below balanced)")
        if shard_ops and sum(shard_ops) > 0:
            mean = sum(shard_ops) / len(shard_ops)
            _require(abs(imbalance - max(shard_ops) / mean) < 1e-6, path,
                     f"shard_imbalance {imbalance} does not match its own "
                     f"shard_ops array (max {max(shard_ops)} / mean {mean})")

    profile = doc.get("prim_profile")
    if profile is not None:
        _require(isinstance(profile, dict), path,
                 "prim_profile must be an object")
        for kind, row in profile.items():
            where = f"{path}:prim_profile:{kind}"
            _require(kind in OP_KINDS, where, f"unknown op kind {kind!r}")
            _require(isinstance(row, dict), where, "row must be an object")
            for key in ("faa", "tas", "swap", "ops"):
                _require(key in row, where, f"missing {key!r}")
                v = row[key]
                _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                         and v >= 0, where, f"{key} must be non-negative")
            _require(row["ops"] > 0, where,
                     "profiled rows must record how many ops they averaged")


def load(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise Invalid(f"{path}: not JSON: {e}")
    validate(doc, path)
    return doc


def diff_counters(name, base, curr, gate_monotone, failures, gate_keys=None):
    """Print deltas; with gate_monotone, flag negative ones as failures.

    gate_keys, when given, restricts the monotone gate to that subset of
    counters (the others are still printed ungated).
    """
    keys = sorted(set(base) | set(curr))
    for key in keys:
        b = base.get(key, 0)
        c = curr.get(key, 0)
        if b == c == 0:
            continue
        delta = c - b
        flag = ""
        if (gate_monotone and delta < 0
                and (gate_keys is None or key in gate_keys)):
            flag = "  NEGATIVE-DELTA"
            failures.append((name, key, delta))
        print(f"{name:<16} {key:<22} {b:>14} {c:>14} {delta:>+10}{flag}")


def diff_histograms(name, base, curr):
    keys = sorted(set(base) | set(curr))
    empty = {"count": 0, "p50_upper_ns": 0, "p99_upper_ns": 0}
    for key in keys:
        b = base.get(key, empty)
        c = curr.get(key, empty)
        if b["count"] == c["count"] == 0:
            continue
        print(f"{name:<16} {key:<22} count {b['count']} -> {c['count']}, "
              f"p50_upper {b['p50_upper_ns']} -> {c['p50_upper_ns']} ns, "
              f"p99_upper {b['p99_upper_ns']} -> {c['p99_upper_ns']} ns")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="snapshot to validate (and diff against)")
    ap.add_argument("current", nargs="?", default=None,
                    help="second snapshot: print current - baseline deltas")
    ap.add_argument("--gate-monotone", action="store_true",
                    help="diff mode: exit 1 if any op count went backwards "
                         "(two runs of one workload must not lose updates)")
    args = ap.parse_args()

    try:
        base = load(args.baseline)
        curr = (load(args.current)
                if args.current else None)
    except (OSError, Invalid) as e:
        print(f"metrics_diff: {e}", file=sys.stderr)
        return 2

    if curr is None:
        print(f"metrics_diff: {args.baseline} is a valid c2sl-metrics-v1 "
              f"snapshot (source {base['source']!r}, telemetry "
              f"{'on' if base['telemetry_enabled'] else 'off'}, "
              f"ops_total {base['ops_total']})")
        return 0

    if not (base["telemetry_enabled"] and curr["telemetry_enabled"]):
        print("metrics_diff: at least one snapshot has telemetry disabled — "
              "both are valid, nothing to diff")
        return 0

    failures = []
    print(f"{'section':<16} {'counter':<22} {'baseline':>14} {'current':>14} "
          f"{'delta':>10}")
    diff_counters("totals", {"ops_total": base["ops_total"]},
                  {"ops_total": curr["ops_total"]}, args.gate_monotone,
                  failures)
    diff_counters("op_counts", base["op_counts"], curr["op_counts"],
                  args.gate_monotone, failures)
    diff_counters("session", base["session"], curr["session"], False, [])
    diff_counters("events", base["events"], curr["events"],
                  args.gate_monotone, failures, gate_keys=MONOTONE_EVENTS)
    diff_histograms("op_latency_ns", base["op_latency_ns"],
                    curr["op_latency_ns"])
    diff_histograms("open_wait_ns", {"open_wait": base["open_wait_ns"]},
                    {"open_wait": curr["open_wait_ns"]})

    if failures:
        print(f"\nmetrics_diff: {len(failures)} op counter(s) went backwards "
              "between runs", file=sys.stderr)
        return 1
    print("\nmetrics_diff: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
