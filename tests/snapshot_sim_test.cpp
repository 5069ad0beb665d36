// Sim-mode verification of the multi-key snapshot design behind
// C2Session::snapshot (service/sim_bridge SimKeyedSnapshot, the twin of
// runtime/keyed_version_digest.h). The story, mechanically checked:
//
//  1. The JOURNAL snapshot — keyed writes append ticket-indexed entries, a
//     snapshot reads the tail once (FAA(0)) and replays below it — IS strongly
//     linearizable, on exactly the schedule families that kill per-key loops:
//     a write landing between the reads of two keys, and two overlapping
//     snapshots racing one writer (the prefix-closure anomaly family that
//     also kills per-key-version double-collects; docs/PROOFS.md works it).
//  2. Transfers are ONE journal entry, so every snapshot conserves the
//     transferred sum — checker-verified against the atomic Xfer spec
//     transition AND asserted directly over every explored execution, for
//     inline amounts and for a wide one (two cells, one ticket fetch&add).
//  3. The naive per-key read loop is PINNED REFUTED on the same schedule
//     family — not even linearizable (the torn (0,1) vector has no
//     linearization point), with the witness history also checked directly
//     against verify::KeyedSnapshotSpec.
//  4. The cross-facet order contract is pinned like the digests' (service_sim):
//     the journal never runs ahead of the keyed reads (shard object first,
//     journal append last), and the shard may briefly lead the journal.
//
// (3) is the experimental record of WHY snapshot() replays a journal instead
// of looping over per-key reads — the same §3.1/§3.2 pack-into-one-FAA-word
// move that powers the max and counter-sum digests, extended to vectors.
#include <gtest/gtest.h>

#include "harness.h"
#include "service/sim_bridge.h"
#include "verify/lin_checker.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

using verify::Invocation;

verify::StrongLinResult check_tree(const sim::ExecGraph& tree, const verify::Spec& spec,
                                   const std::string& object) {
  verify::StrongLinOptions slopts;
  slopts.object = object;
  return verify::check_strong_linearizability(tree, spec, slopts);
}

verify::StrongLinResult check(const sim::ScenarioFn& scenario, int n,
                              const verify::Spec& spec, const std::string& object,
                              int max_depth = 32, size_t max_nodes = 400000) {
  sim::ExploreOptions opts;
  opts.max_depth = max_depth;
  opts.max_nodes = max_nodes;
  sim::ExecGraph tree = sim::explore(n, scenario, opts);
  EXPECT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  return check_tree(tree, spec, object);
}

testing::ObjectFactory snap_factory(int shards, bool naive_loop = false) {
  return [shards, naive_loop](sim::World&, int n) {
    return std::make_shared<svc::SimKeyedSnapshot>("ksnap", n, shards, naive_loop);
  };
}

/// A transfer amount outside the journal cell's inline range: it takes the
/// native wide path (two tickets from one fetch&add, amount cell first).
constexpr int64_t kWide = 5000;
static_assert(kWide > rt::KeyedVersionDigest::kInlineMax);

/// Packed args in the KeyedSnapshotSpec encoding.
int64_t max_arg(int shard, int64_t v) { return shard | (v << 3); }
int64_t xfer_arg(int from, int to, int64_t d) {
  return from | (int64_t{to} << 3) | (d << 6);
}

// --- 1. the journal snapshot is strongly linearizable -----------------------

TEST(SnapshotSim, JournalSnapshotWriteBetweenReadsStronglyLinearizable) {
  // THE schedule family that tears per-key loops: a snapshot overlapping two
  // back-to-back incs on different shards. The journal version must keep a
  // fixed own-step point (its tail FAA(0)) through every interleaving.
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Snap", unit(), 0}},
                        {{"Inc", num(0), 1}, {"Inc", num(1), 1}}});
  verify::KeyedSnapshotSpec spec(2);
  auto res = check(scenario, 2, spec, "ksnap");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(SnapshotSim, JournalSnapshotRacingSnapshotsStronglyLinearizable) {
  // The two-scanner anomaly family (docs/PROOFS.md): two overlapping
  // snapshots racing one in-flight writer is exactly where validation-window
  // schemes (per-key version double-collects) lose prefix closure. The
  // journal design must verify here — both snapshots linearize at their own
  // FAA(0). The writer is a transfer — the cheapest journal append (ticket
  // fetch&add + entry write), which keeps the 3-process tree inside the node
  // budget while still exposing the drawn-ticket/undeposited-entry window
  // both replayers must poll through.
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Snap", unit(), 0}},
                        {{"Snap", unit(), 1}},
                        {{"Xfer", num(xfer_arg(0, 1, 1)), 2}}});
  verify::KeyedSnapshotSpec spec(2);
  // Depth 14 bounds the replayers' deposit-poll branches: two pollers
  // interleaving freely is exponential in depth (the explorer has no
  // partial-order reduction), and the anomaly nodes — both tails read while
  // the writer sits between its ticket and its deposit — are all shallow.
  // Fair schedules complete every op well inside the budget; starved ones
  // truncate, which the checker handles (pending ops stay pending).
  auto res = check(scenario, 3, spec, "ksnap", /*max_depth=*/14);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(SnapshotSim, JournalSnapshotMaxFacetStronglyLinearizable) {
  // Same family over the max facet: writes 2-then-1 routed to different
  // shards while a snapshot replays.
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Snap", unit(), 0}},
                        {{"WriteMax", num(max_arg(0, 2)), 1},
                         {"WriteMax", num(max_arg(1, 1)), 1}}});
  verify::KeyedSnapshotSpec spec(2);
  auto res = check(scenario, 2, spec, "ksnap");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// --- 2. transfer conservation -----------------------------------------------

TEST(SnapshotSim, TransferConservationStronglyLinearizable) {
  // Xfer is ONE spec transition (debit and credit inseparable); an
  // implementation that could tear the two sides would fail this check. The
  // second, wide transfer races the snapshot through its two-cell deposit.
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Xfer", num(xfer_arg(0, 1, 1)), 0},
                         {"Xfer", num(xfer_arg(0, 1, kWide)), 0}},
                        {{"Snap", unit(), 1}}});
  verify::KeyedSnapshotSpec spec(2);
  auto res = check(scenario, 2, spec, "ksnap");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(SnapshotSim, EverySnapshotConservesTheTransferredSum) {
  // Direct sweep over the full execution tree: in EVERY completed execution,
  // EVERY snapshot's counter entries sum to zero — a transfer is either
  // entirely inside the replayed prefix or entirely outside it. The
  // snapshotter's own wide transfer precedes its snapshot, so every replay
  // steps over its two cells among the racing narrow entries. (A wide
  // transfer racing the snapshot is the tree above and, with three
  // processes, WideTransferRacingThreeProcessesStronglyLinearizable below.)
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Xfer", num(xfer_arg(0, 1, 2)), 0}},
                        {{"Xfer", num(xfer_arg(1, 0, 1)), 1}},
                        {{"Xfer", num(xfer_arg(0, 1, kWide)), 2},
                         {"Snap", unit(), 2}}});
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  int snaps_seen = 0;
  size_t executions = 0;
  tree.for_each_path([&](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    ++executions;
    if (!node.all_done) return;
    for (const auto& r : verify::operations_from_events(history)) {
      if (r.name != "Snap" || !r.complete) continue;
      const std::vector<int64_t>& view = as_vec(r.resp);
      ASSERT_EQ(view.size(), 4u);
      EXPECT_EQ(view[0] + view[1], 0)
          << "snapshot observed a torn transfer: (" << view[0] << ", "
          << view[1] << ")";
      ++snaps_seen;
    }
  });
  EXPECT_GT(snaps_seen, 0);
  // One history per execution: the walk yields every node of the tree of
  // executions, 168,867 of them over 7,983 configurations.
  EXPECT_EQ(executions, 168867u);
}

TEST(SnapshotSim, WideTransferRacingThreeProcessesStronglyLinearizable) {
  // The sweep above with the wide transfer moved off the snapshotter: P1's
  // two-cell deposit now races both narrow transfers and the snapshot.
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Xfer", num(xfer_arg(0, 1, 2)), 0}},
                        {{"Xfer", num(xfer_arg(1, 0, kWide)), 1}},
                        {{"Xfer", num(xfer_arg(0, 1, 1)), 2}, {"Snap", unit(), 2}}});
  verify::KeyedSnapshotSpec spec(2);
  auto res = check(scenario, 3, spec, "ksnap");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// --- 3. the naive per-key read loop, pinned refuted -------------------------

// PINNED: the one-pass per-key loop tears. Concrete anomaly in the explored
// tree: the loop reads shard 0 (sees 0), both incs land (states (0,0) ->
// (1,0) -> (1,1)), the loop reads shard 1 (sees 1) and returns (0,1) — a
// vector that was never the state at ANY point. Not even linearizable, so
// certainly not strongly linearizable. If this starts passing, either the
// bridge stopped modelling the loop or the checker broke — and the reason
// snapshot() replays a journal would be silently erased.
TEST(SnapshotSim, NaivePerKeyLoopRefuted) {
  auto scenario = testing::fixed_scenario(
      snap_factory(2, /*naive_loop=*/true),
      {{{"Snap", unit(), 0}}, {{"Inc", num(0), 1}, {"Inc", num(1), 1}}});
  verify::KeyedSnapshotSpec spec(2);
  auto res = check(scenario, 2, spec, "ksnap");
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable)
      << "per-key read loops must NOT verify — this refutation is why "
         "C2Session::snapshot replays the write journal";
}

// The witness history, checked directly against the spec: Snap -> (0,1,0,0)
// overlapping Inc(0) then Inc(1) (program order, both complete inside the
// snapshot's interval) admits NO linearization — the snapshot can go before
// both incs (0,0), between them (1,0), or after both (1,1), never (0,1).
TEST(SnapshotSim, NaiveLoopWitnessHistoryIsNotLinearizable) {
  auto make_history = [](std::vector<int64_t> snap_resp) {
    std::vector<sim::OpRecord> ops(3);
    ops[0].id = 0;
    ops[0].proc = 0;
    ops[0].object = "ksnap";
    ops[0].name = "Snap";
    ops[0].args = unit();
    ops[0].resp = vec(std::move(snap_resp));
    ops[0].complete = true;
    ops[0].inv_seq = 0;
    ops[0].resp_seq = 7;
    ops[1].id = 1;
    ops[1].proc = 1;
    ops[1].object = "ksnap";
    ops[1].name = "Inc";
    ops[1].args = num(0);
    ops[1].resp = unit();
    ops[1].complete = true;
    ops[1].inv_seq = 1;
    ops[1].resp_seq = 2;
    ops[2].id = 2;
    ops[2].proc = 1;
    ops[2].object = "ksnap";
    ops[2].name = "Inc";
    ops[2].args = num(1);
    ops[2].resp = unit();
    ops[2].complete = true;
    ops[2].inv_seq = 3;
    ops[2].resp_seq = 4;
    return ops;
  };
  verify::KeyedSnapshotSpec spec(2);
  auto torn = verify::check_linearizability(make_history({0, 1, 0, 0}), spec);
  ASSERT_TRUE(torn.decided);
  EXPECT_FALSE(torn.linearizable) << "Snap -> (0,1) has no linearization point";
  auto ok = verify::check_linearizability(make_history({1, 1, 0, 0}), spec);
  ASSERT_TRUE(ok.decided);
  EXPECT_TRUE(ok.linearizable) << ok.explanation;
}

// --- 4. the cross-facet order, pinned (journal last) ------------------------

/// P1's two read responses (program order), one pair per completed execution:
/// the snapshot's shard-0 counter entry and the direct shard read, in the
/// order P1 issued them.
std::vector<std::pair<int64_t, int64_t>> observer_pairs(const sim::ExecGraph& tree) {
  std::vector<std::pair<int64_t, int64_t>> out;
  tree.for_each_path([&](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    if (!node.all_done) return;
    std::vector<int64_t> resp;
    for (const auto& r : verify::operations_from_events(history)) {
      if (r.proc != 1 || !r.complete) continue;
      if (r.name == "Snap") resp.push_back(as_vec(r.resp)[0]);
      if (r.name == "ReadShard") resp.push_back(as_num(r.resp));
    }
    if (resp.size() == 2) out.emplace_back(resp[0], resp[1]);
  });
  return out;
}

TEST(SnapshotSim, JournalNeverLeadsTheShardCounters) {
  // Incrementer on shard 0; observer snapshots THEN reads the shard directly.
  // Shard counters are monotone, so if the journal ever led (append before
  // the shard win), some execution would show snap=1 while the (later!)
  // direct shard read still returns 0.
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Inc", num(0), 0}},
                        {{"Snap", unit(), 1}, {"ReadShard", num(0), 1}}});
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  auto pairs = observer_pairs(tree);
  ASSERT_FALSE(pairs.empty());
  for (auto [snap_v, shard] : pairs) {
    EXPECT_LE(snap_v, shard)
        << "journal ran ahead of the shard counter: the shard-first order in "
           "CounterRef::inc was reordered";
  }
}

TEST(SnapshotSim, ShardCounterMayLeadTheJournal) {
  // Observer reads the shard THEN snapshots: some execution must catch the
  // incrementer between its shard win and its journal append (shard=1, snap
  // still 0). The documented lag is load-bearing, so its existence is pinned.
  auto scenario = testing::fixed_scenario(
      snap_factory(2), {{{"Inc", num(0), 0}},
                        {{"ReadShard", num(0), 1}, {"Snap", unit(), 1}}});
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  auto pairs = observer_pairs(tree);
  bool lag_witnessed = false;
  for (auto [shard, snap_v] : pairs) {
    if (shard == 1 && snap_v == 0) lag_witnessed = true;
  }
  EXPECT_TRUE(lag_witnessed)
      << "no execution shows the documented shard-ahead-of-journal lag window";
}

}  // namespace
}  // namespace c2sl
