#!/usr/bin/env python3
"""Offline linearization-witness auditor for c2sl-trace-v1 traces.

    tools/trace_audit.py TRACE.json [--slack-ns N] [--allow-drops] [-v]

A C2SL_CAPTURE=1 build records one fixed-size record per instrumented C2Store
op into lane-local rings; tel::trace_to_json drains them into one
"c2sl-trace-v1" document. Each journal-facet op carries its LINEARIZATION
WITNESS — the op's own FAA step, per the paper's strong-linearizability
construction — so validating a trace is a deterministic O(n log n) replay,
not an NP-hard order search. This tool proves three claims offline:

  1. REPLAY EXACTNESS — the witnessed order, replayed through a sequential
     model of the store, reproduces every recorded result exactly:
       * journal tickets are unique, and (absent drops) dense 0..N-1 — a
         transfer whose amount is outside [-4096, 4095] owns two tickets,
         its witness and the next one;
       * counter_inc results replay each routing bucket's pre-increment
         sequence: the multiset of `result` (the shard F&I's prev) per
         bucket is exactly {0..n-1} (checked only absent resize records —
         per-epoch shard counters restart under live resizing);
       * each snapshot's result equals the number of counter_inc records
         with witness below its tail (transfers net to zero, so the ledger
         sum IS the inc count — the conservation identity);
       * each transfer's result is its own ticket; resize epochs strictly
         increase in ticket order.
  2. REAL-TIME PRECEDENCE — if op A's response precedes op B's invocation
     (by more than --slack-ns, absorbing unfenced TSC skew across cores),
     then witness(A) precedes witness(B). Writes occupy odd positions
     2*ticket+1 and snapshots even positions 2*tail, so "write ticket t
     before snapshot tail T" is exactly 2t+1 < 2T. Checked in one sorted
     sweep; a violation names both records. The same sweep checks the
     monotone aggregates (counter_sum / global_max digest reads) against
     real time, and bounds each against the incs / max_writes that
     provably completed before it or could have reached it.
  3. CONSERVATION AT EVERY TRANSFER CUT — replaying incs and transfers in
     witness order, the sum of per-bucket ledger balances at each transfer's
     position equals the incs replayed so far, and every snapshot cut
     reproduces the recorded total.

Per-lane sanity rides along: a lane is one session at a time, so its t0s
must be non-decreasing and its journal-facet positions strictly increasing
(snapshots may repeat a tail).

Unwitnessed records (plain reads, TAS/set ops, session open/close) are
exempt from ordering claims but still schema-checked.

A trace with dropped records (ring overflow) fails the audit unless
--allow-drops is given, which keeps the order checks but disables every
completeness-dependent check (ticket density, inc replay, snapshot totals,
aggregate bounds). A trace from a C2SL_CAPTURE=0 build (trace_enabled false)
is vacuously valid.

Exit status: 0 audit passed, 1 a claim was refuted (the violating records
are named), 2 malformed input. Standard library only.
"""

import argparse
import bisect
import json
import sys

JOURNAL_OPS = ("counter_inc", "max_write", "transfer", "resize")
AGG_OPS = ("counter_sum", "global_max")


# Transfer amounts the journal packs into one cell (rt::KeyedVersionDigest::
# kInlineMin/kInlineMax); any other amount takes two tickets.
INLINE_MIN, INLINE_MAX = -4096, 4095


class Refuted(Exception):
    pass


def is_wide_transfer(r):
    return r.op == "transfer" and not INLINE_MIN <= r.arg <= INLINE_MAX


def die(msg):
    print(f"trace_audit: malformed input: {msg}", file=sys.stderr)
    sys.exit(2)


class Rec:
    __slots__ = ("lane", "idx", "op", "key", "key_b", "arg", "result",
                 "witness", "t0", "t1", "epoch", "pos")

    def __init__(self, lane, idx, r):
        self.lane = lane
        self.idx = idx
        try:
            self.op = r["op"]
            self.arg = int(r["arg"])
            self.result = int(r["result"])
            self.t0 = int(r["t0_ns"])
            self.t1 = int(r["t1_ns"])
        except (KeyError, TypeError, ValueError) as e:
            die(f"lane {lane} record {idx}: {e!r}")
        self.key = int(r.get("key", -1))
        self.key_b = int(r.get("key_b", -1))
        self.witness = int(r.get("witness", -1))
        self.epoch = int(r.get("epoch", -1))
        if self.t1 < self.t0:
            die(f"{self.name()}: t1 < t0")
        # Total witness position: writes odd (2w+1), snapshot tails even (2w)
        # — write ticket t precedes snapshot tail T iff 2t+1 < 2T iff t < T.
        if self.witness >= 0:
            self.pos = 2 * self.witness + (0 if self.op == "snapshot" else 1)
        else:
            self.pos = -1

    def name(self):
        w = f" witness={self.witness}" if self.witness >= 0 else ""
        return f"lane {self.lane} record #{self.idx} [{self.op}{w}]"


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(str(e))
    if doc.get("schema") != "c2sl-trace-v1":
        die(f"schema is {doc.get('schema')!r}, want c2sl-trace-v1")
    for k in ("trace_enabled", "records_total", "dropped_total", "lanes"):
        if k not in doc:
            die(f"missing field {k!r}")
    return doc


def audit(doc, slack_ns, allow_drops, verbose):
    """Raises Refuted on the first refuted claim; returns a stats dict."""
    if not doc["trace_enabled"]:
        return {"enabled": False, "records": 0}

    recs = []
    for lane_obj in doc["lanes"]:
        lane = lane_obj.get("lane", -1)
        for i, r in enumerate(lane_obj.get("records", [])):
            recs.append(Rec(lane, i, r))
    if sum(len(l.get("records", [])) for l in doc["lanes"]) != doc["records_total"]:
        die("records_total does not match the lane arrays")

    dropped = int(doc["dropped_total"])
    complete = dropped == 0
    if dropped and not allow_drops:
        raise Refuted(
            f"{dropped} records dropped to ring overflow; the witness "
            f"history is incomplete (re-run with a larger LaneTrace::kCap "
            f"in src/telemetry/trace.h, or pass --allow-drops to audit order "
            f"claims only)")

    # --- per-lane sanity: sequential sessions --------------------------------
    by_lane = {}
    for r in recs:
        by_lane.setdefault(r.lane, []).append(r)
    for lane, rs in by_lane.items():
        prev_t0 = None
        prev_pos = None
        for r in rs:
            if prev_t0 is not None and r.t0 < prev_t0:
                raise Refuted(
                    f"lane {lane} t0 went backwards at {r.name()} "
                    f"({r.t0} < {prev_t0}): a lane is one session at a time")
            prev_t0 = r.t0
            if r.op in JOURNAL_OPS or r.op == "snapshot":
                if r.pos >= 0:
                    if prev_pos is not None:
                        strict = not (r.op == "snapshot" and r.pos == prev_pos[0])
                        if r.pos < prev_pos[0] or (strict and r.pos == prev_pos[0]):
                            raise Refuted(
                                f"per-lane witness order broken: {r.name()} "
                                f"does not follow {prev_pos[1]} on the same "
                                f"lane (program order is real-time order)")
                    prev_pos = (r.pos, r.name())

    # --- claim 1: replay exactness -------------------------------------------
    journal = sorted((r for r in recs if r.pos >= 0 and r.op in JOURNAL_OPS),
                     key=lambda r: r.witness)
    tickets = {}
    for r in journal:
        if r.witness in tickets:
            raise Refuted(
                f"duplicate journal ticket {r.witness}: {r.name()} and "
                f"{tickets[r.witness].name()} — the journal FAA issues each "
                f"ticket once")
        tickets[r.witness] = r
    # A wide transfer (amount outside the journal's inline range) draws two
    # tickets with one FAA, so it also owns the ticket after its witness.
    wide = {r.witness + 1: r for r in journal if is_wide_transfer(r)}
    for t, r in wide.items():
        if t in tickets:
            raise Refuted(
                f"duplicate journal ticket {t}: {tickets[t].name()} holds the "
                f"second ticket of wide transfer {r.name()}")
    for r in recs:
        if r.op == "snapshot" and r.witness in wide:
            raise Refuted(
                f"{r.name()} read tail {r.witness}, inside wide transfer "
                f"{wide[r.witness].name()}: its one FAA moves the tail past "
                f"both of its tickets")
    if complete and journal:
        last = journal[-1]
        n = last.witness + (2 if is_wide_transfer(last) else 1)
        if len(journal) + len(wide) != n:
            missing = next(t for t in range(n)
                           if t not in tickets and t not in wide)
            raise Refuted(
                f"journal tickets have a gap at {missing} (max ticket "
                f"{n - 1}, {len(journal)} witnessed records): a complete "
                f"trace covers every journal append")

    resizes = [r for r in journal if r.op == "resize"]
    for a, b in zip(resizes, resizes[1:]):
        if not (b.epoch > a.epoch and b.arg > a.arg):
            raise Refuted(
                f"resize sequence not monotone: {b.name()} (epoch {b.epoch}, "
                f"shards {b.arg}) after {a.name()} (epoch {a.epoch}, "
                f"shards {a.arg})")

    for r in journal:
        if r.op == "transfer" and r.result != r.witness:
            raise Refuted(
                f"{r.name()}: transfer result {r.result} != its own ticket "
                f"— the returned receipt IS the witness")

    # Sequential replay in witness order: per-bucket ledger balances and the
    # running inc count. Conservation at every transfer cut (claim 3), inc
    # prev-sequence exactness, and snapshot totals (claim 1) in one pass.
    snapshots = sorted((r for r in recs if r.op == "snapshot" and r.pos >= 0),
                       key=lambda r: r.pos)
    check_incs = complete and not resizes
    balances = {}
    inc_count = 0
    next_prev = {}  # bucket -> expected multiset via counting
    prev_seen = {}
    si = 0
    for r in journal:
        # Snapshots whose tail cuts before this ticket replay here.
        while si < len(snapshots) and snapshots[si].pos < r.pos:
            s = snapshots[si]
            if complete and s.result != inc_count:
                raise Refuted(
                    f"{s.name()} (tail {s.witness}) recorded total "
                    f"{s.result}, but replaying its witness prefix yields "
                    f"{inc_count} incs — the snapshot does not match the "
                    f"cut its own witness claims")
            if sum(balances.values()) != inc_count:
                raise Refuted(
                    f"conservation broken at {s.name()}: ledger sum "
                    f"{sum(balances.values())} != {inc_count} incs")
            si += 1
        if r.op == "counter_inc":
            balances[r.key] = balances.get(r.key, 0) + 1
            inc_count += 1
            if check_incs:
                prev_seen.setdefault(r.key, []).append(r)
                next_prev[r.key] = next_prev.get(r.key, 0) + 1
        elif r.op == "transfer":
            balances[r.key] = balances.get(r.key, 0) - r.arg
            balances[r.key_b] = balances.get(r.key_b, 0) + r.arg
            if sum(balances.values()) != inc_count:
                raise Refuted(
                    f"conservation broken at transfer cut {r.name()}: "
                    f"ledger sum {sum(balances.values())} != "
                    f"{inc_count} incs (transfers must net to zero)")
    for si in range(si, len(snapshots)):
        s = snapshots[si]
        if complete and s.result != inc_count:
            raise Refuted(
                f"{s.name()} (tail {s.witness}) recorded total {s.result}, "
                f"but the full witnessed history yields {inc_count} incs")

    if check_incs:
        for bucket, rs in prev_seen.items():
            got = sorted(r.result for r in rs)
            if got != list(range(len(rs))):
                bad = next(r for r in rs if r.result not in range(len(rs))
                           or got.count(r.result) > 1)
                raise Refuted(
                    f"bucket {bucket} inc results are not a permutation of "
                    f"0..{len(rs) - 1} (got {got[:8]}...): e.g. {bad.name()} "
                    f"returned prev {bad.result} — sequential replay of the "
                    f"shard F&I cannot reproduce this")

    # --- claim 2: real-time precedence ---------------------------------------
    # One sweep per witness domain: sort by invocation; advance a completion
    # pointer over response-sorted records; any record whose response (plus
    # slack) precedes the current invocation must have a smaller position.
    def precedence_sweep(rs, domain):
        by_t0 = sorted(rs, key=lambda r: r.t0)
        by_t1 = sorted(rs, key=lambda r: r.t1)
        j = 0
        best = None  # (pos, rec) with max pos among completed
        for b in by_t0:
            while j < len(by_t1) and by_t1[j].t1 + slack_ns < b.t0:
                if best is None or by_t1[j].pos > best[0]:
                    best = (by_t1[j].pos, by_t1[j])
                j += 1
            if best is not None and best[0] > b.pos:
                a = best[1]
                raise Refuted(
                    f"real-time precedence violated in the {domain} domain: "
                    f"{a.name()} responded at {a.t1}ns, before {b.name()} "
                    f"invoked at {b.t0}ns (slack {slack_ns}ns), yet its "
                    f"witness position {best[0]} > {b.pos} — a strongly "
                    f"linearizable history cannot reorder them")

    precedence_sweep([r for r in recs if r.pos >= 0
                      and (r.op in JOURNAL_OPS or r.op == "snapshot")],
                     "journal")
    sums = [r for r in recs if r.op == "counter_sum" and r.witness >= 0]
    maxes = [r for r in recs if r.op == "global_max" and r.witness >= 0]
    precedence_sweep(sums, "counter-sum digest")
    precedence_sweep(maxes, "global-max digest")

    for r in sums + maxes:
        if r.result != r.witness:
            raise Refuted(
                f"{r.name()}: aggregate result {r.result} != witness "
                f"{r.witness} — the digest value read IS the witness")

    # Aggregate bounds: a digest read must see at least every inc/max_write
    # that completed before it invoked, and at most what had invoked before
    # it responded. Needs the complete history.
    if complete:
        incs = [r for r in recs if r.op == "counter_inc"]
        t1s = sorted(r.t1 for r in incs)
        t0s = sorted(r.t0 for r in incs)
        for s in sums:
            lo = bisect.bisect_left(t1s, s.t0 - slack_ns)
            hi = bisect.bisect_right(t0s, s.t1 + slack_ns)
            if not (lo <= s.witness <= hi):
                raise Refuted(
                    f"{s.name()}: digest value {s.witness} outside its "
                    f"real-time bounds [{lo}, {hi}] ({lo} incs completed "
                    f"before it invoked, {hi} had invoked before it "
                    f"responded)")
        writes = [r for r in recs if r.op == "max_write"]
        w_t1 = sorted((r.t1, r.arg) for r in writes)
        w_keys = [t1 for t1, _ in w_t1]
        prefix_max = []
        run = 0
        for _, arg in w_t1:
            run = max(run, arg)
            prefix_max.append(run)
        all_max = max((r.arg for r in writes), default=0)
        for m in maxes:
            k = bisect.bisect_left(w_keys, m.t0 - slack_ns)
            lo = prefix_max[k - 1] if k > 0 else 0
            if not (lo <= m.witness <= max(all_max, 0)):
                raise Refuted(
                    f"{m.name()}: global max {m.witness} outside its "
                    f"real-time bounds [{lo}, {max(all_max, 0)}]")

    stats = {
        "enabled": True,
        "records": len(recs),
        "lanes": len(by_lane),
        "journal": len(journal),
        "snapshots": len(snapshots),
        "transfers": sum(1 for r in journal if r.op == "transfer"),
        "resizes": len(resizes),
        "aggregates": len(sums) + len(maxes),
        "dropped": dropped,
    }
    if verbose:
        print(f"trace_audit: {stats}")
    return stats


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Audit a c2sl-trace-v1 linearization-witness trace.")
    ap.add_argument("trace", help="c2sl-trace-v1 JSON file")
    ap.add_argument("--slack-ns", type=int, default=1000,
                    help="real-time slack absorbing unfenced TSC skew "
                         "across cores (default %(default)s)")
    ap.add_argument("--allow-drops", action="store_true",
                    help="audit order claims even when the ring overflowed "
                         "(completeness-dependent checks are skipped)")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    doc = load(args.trace)
    try:
        stats = audit(doc, args.slack_ns, args.allow_drops, args.verbose)
    except Refuted as e:
        print(f"trace_audit: REFUTED: {e}", file=sys.stderr)
        return 1
    if not stats["enabled"]:
        print("trace_audit: trace_enabled=false (C2SL_CAPTURE=0 build); "
              "vacuously valid")
        return 0
    print(f"trace_audit: OK — {stats['records']} records on "
          f"{stats['lanes']} lanes: {stats['journal']} journal-witnessed "
          f"({stats['transfers']} transfers, {stats['resizes']} resizes), "
          f"{stats['snapshots']} snapshots, {stats['aggregates']} aggregate "
          f"reads; replay, precedence and conservation all hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
