// Sim-mode verification of the C2Store service algorithms (service/sim_bridge)
// on full execution trees. The story, mechanically checked:
//
//  1. The keyed service path — routing through the store's hash_key and
//     slot_of onto per-shard paper constructions — IS strongly linearizable:
//     strong linearizability is local, and every shard facet verifies on the
//     shared tree. (The acceptance configuration.)
//  2. The digest designs behind C2Store::global_max() AND counter_sum()
//     (writes also land on one digest register; the global read is a
//     single-word read) ARE strongly linearizable — the sum digest is checked
//     on the very schedule family that refutes the scan-based sum. One
//     aggregate twin per value type (SimShardedMaxRegister,
//     SimShardedCounter) serves (2)–(4); svc::AggRead picks its read.
//  3. The double-collect aggregate SCAN is linearizable (sweeps pass, and the
//     concrete schedule that kills the naive scan produces a linearizable
//     history) but NOT strongly linearizable: its linearization point — the
//     stable collect pair — is decided by future schedule steps, so no
//     prefix-closed assignment exists. PINNED refutation.
//  4. The naive one-pass scan is not even linearizable. PINNED refutation,
//     with the witness history checked directly against the spec.
//
// (3) and (4) are the experimental record of WHY global_max reads a digest
// word — the same reason the paper packs its snapshot into one fetch&add
// register instead of collecting per-process registers.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <stdexcept>

#include "harness.h"
#include "runtime/publish_once.h"
#include "service/sim_bridge.h"
#include "sim/sim_mem.h"
#include "verify/lin_checker.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

using verify::Invocation;
using Variant = svc::SimRoutingEpoch::Variant;

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

/// The aggregate twins: per-shard objects plus a digest, read as `read` says.
testing::ObjectFactory max_twin(std::string name, int shards, svc::AggRead read) {
  return [=](sim::World&, int n) {
    return std::make_shared<svc::SimShardedMaxRegister>(name, n, shards, read);
  };
}
testing::ObjectFactory counter_twin(std::string name, svc::AggRead read) {
  return [=](sim::World&, int) {
    return std::make_shared<svc::SimShardedCounter>(name, /*shards=*/2, read);
  };
}

/// Two keys guaranteed to live on different shards of a 2-shard store.
std::pair<uint64_t, uint64_t> keys_on_distinct_shards() {
  auto shard = [](uint64_t k) { return svc::slot_of(svc::hash_key(k), 2); };
  uint64_t a = 0;
  uint64_t b = 1;
  while (shard(b) == shard(a)) ++b;
  return {a, b};
}

// --- 1. the keyed service path (acceptance configuration) -------------------

TEST(C2StoreSim, KeyedStorePerShardMaxStronglyLinearizable) {
  auto [ka, kb] = keys_on_distinct_shards();
  std::shared_ptr<svc::SimKeyedStore> store;
  auto scenario = [ka = ka, kb = kb, &store](sim::SimRun& run) {
    store = std::make_shared<svc::SimKeyedStore>("c2", run.n(), 2);
    run.sched.spawn(0, [store, ka](sim::Ctx& ctx) { store->max_write(ctx, ka, 2); });
    run.sched.spawn(1, [store, ka, kb](sim::Ctx& ctx) {
      store->max_write(ctx, kb, 1);
      store->max_read(ctx, ka);
    });
    run.sched.spawn(2, [store, kb](sim::Ctx& ctx) { store->max_read(ctx, kb); });
  };
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::MaxRegisterSpec spec;
  // Strong linearizability is local: certify each shard facet on the SAME tree.
  for (int s = 0; s < 2; ++s) {
    auto res = check_tree(tree, spec, store->max_object(s));
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.strongly_linearizable)
        << "shard facet " << s << ":\n" << res.report;
  }
}

TEST(C2StoreSim, KeyedStorePerShardCounterStronglyLinearizable) {
  auto [ka, kb] = keys_on_distinct_shards();
  std::shared_ptr<svc::SimKeyedStore> store;
  auto scenario = [ka = ka, kb = kb, &store](sim::SimRun& run) {
    store = std::make_shared<svc::SimKeyedStore>("c2", run.n(), 2);
    run.sched.spawn(0, [store, ka](sim::Ctx& ctx) { store->counter_inc(ctx, ka); });
    run.sched.spawn(1, [store, ka, kb](sim::Ctx& ctx) {
      store->counter_inc(ctx, kb);
      store->counter_read(ctx, ka);
    });
    run.sched.spawn(2, [store, ka](sim::Ctx& ctx) { store->counter_inc(ctx, ka); });
  };
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::FaiSpec spec;
  for (int s = 0; s < 2; ++s) {
    auto res = check_tree(tree, spec, store->ctr_object(s));
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.strongly_linearizable)
        << "shard facet " << s << ":\n" << res.report;
  }
}

// --- 2. the max twin, AggRead::kDigest (global_max) --------------------------

TEST(C2StoreSim, GlobalMaxDigestStronglyLinearizable) {
  auto factory = max_twin("gmax", /*shards=*/2, svc::AggRead::kDigest);
  // The schedule family that kills the scans: one process writes 2 then 1
  // (routed to different shards) while another reads the global value.
  auto scenario = testing::fixed_scenario(
      factory, {{{"ReadMax", unit(), 0}},
                {{"WriteMax", num(2), 1}, {"WriteMax", num(1), 1}}});
  verify::MaxRegisterSpec spec;
  auto res = check(scenario, 2, spec, "gmax");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(C2StoreSim, GlobalMaxDigestConcurrentWritersStronglyLinearizable) {
  auto factory = max_twin("gmax", /*shards=*/2, svc::AggRead::kDigest);
  auto scenario = testing::fixed_scenario(factory, {{{"WriteMax", num(2), 0}},
                                                    {{"WriteMax", num(1), 1}},
                                                    {{"ReadMax", unit(), 2}}});
  verify::MaxRegisterSpec spec;
  auto res = check(scenario, 3, spec, "gmax");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// --- 2b. the max twin's cross-facet write order, pinned ----------------------
//
// MaxRef::write updates the SHARD register first and the digest second. Each
// facet is individually strongly linearizable (above), but the order between
// the two writes is a documented cross-facet contract:
//   (i)  the digest may briefly LAG a shard register (a client can read v via
//        its key and then see global_max() < v while the writer sits between
//        its two updates) — that lag is real, witnessed below;
//   (ii) the digest must NEVER LEAD the shard registers (global_max() never
//        reports a value no shard register holds yet).
// A future "optimisation" that swaps the two writes would silently flip (ii)
// into a real anomaly — global_max() announcing values that no keyed read can
// confirm. These two tests make that reorder fail loudly instead of only
// contradicting a header comment.

/// P1's two read responses (program order), one pair per completed execution.
std::vector<std::pair<int64_t, int64_t>> observer_read_pairs(const sim::ExecGraph& tree) {
  std::vector<std::pair<int64_t, int64_t>> out;
  tree.for_each_path([&](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    if (!node.all_done) return;
    std::vector<int64_t> resp;
    for (const auto& r : verify::operations_from_events(history)) {
      if (r.proc == 1 && r.complete && r.name != "WriteMax") resp.push_back(as_num(r.resp));
    }
    if (resp.size() == 2) out.emplace_back(resp[0], resp[1]);
  });
  return out;
}

TEST(C2StoreSim, DigestNeverLeadsTheShardRegisters) {
  auto factory = max_twin("gmax", /*shards=*/2, svc::AggRead::kDigest);
  // Writer lands 2 (routed to shard 0); observer reads digest THEN the shard.
  // Shard registers are monotone, so if the digest ever led, some execution
  // would show digest=2 while the (later!) shard read still returns 0.
  auto scenario = testing::fixed_scenario(
      factory, {{{"WriteMax", num(2), 0}},
                {{"ReadMax", unit(), 1}, {"ReadShard", num(0), 1}}});
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  auto pairs = observer_read_pairs(tree);
  ASSERT_FALSE(pairs.empty());
  for (auto [digest, shard] : pairs) {
    EXPECT_LE(digest, shard)
        << "digest ran ahead of the shard register: the shard-first write "
           "order in MaxRef::write was reordered";
  }
}

TEST(C2StoreSim, ShardRegisterMayLeadTheDigest) {
  auto factory = max_twin("gmax", /*shards=*/2, svc::AggRead::kDigest);
  // Observer reads the shard THEN the digest: some execution must catch the
  // writer between its two updates (shard=2, digest still 0). If this witness
  // disappears, the write order changed — the documented lag is load-bearing
  // documentation, so its existence is pinned too.
  auto scenario = testing::fixed_scenario(
      factory, {{{"WriteMax", num(2), 0}},
                {{"ReadShard", num(0), 1}, {"ReadMax", unit(), 1}}});
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  auto pairs = observer_read_pairs(tree);
  bool lag_witnessed = false;
  for (auto [shard, digest] : pairs) {
    if (shard == 2 && digest == 0) lag_witnessed = true;
  }
  EXPECT_TRUE(lag_witnessed)
      << "no execution shows the documented shard-ahead-of-digest lag window";
}

// --- 2c. the counter twin, AggRead::kDigest (counter_sum) --------------------
//
// counter_sum() used to be the last aggregate served by a double-collect scan
// (linearizable only — refutation pinned in section 3). It now reads a
// CounterSumDigest: every Inc lands in its shard counter AND fetch&adds one
// digest word; the sum read is a single FAA(0). These tests run the digest
// design through EXACTLY the schedule family that refutes the scan-based sum
// (DoubleCollectCounterNotStronglyLinearizable below, kept as the negative
// control) and verify it strongly linearizable, then pin the cross-facet
// write order the same way as the max digest's (2b).

TEST(C2StoreSim, CounterSumDigestStronglyLinearizable) {
  auto factory = counter_twin("gsum", svc::AggRead::kDigest);
  // The schedule family that kills the scan-based sum: two concurrent
  // incrementers (routed to different shards by process id) and a reader.
  auto scenario = testing::fixed_scenario(
      factory,
      {{{"Inc", unit(), 0}}, {{"Inc", unit(), 1}}, {{"Read", unit(), 2}}});
  verify::CounterSpec spec;
  auto res = check(scenario, 3, spec, "gsum");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(C2StoreSim, CounterSumDigestIncReadRaceStronglyLinearizable) {
  auto factory = counter_twin("gsum", svc::AggRead::kDigest);
  // A reader interleaved with back-to-back incs on one shard: the reads must
  // keep fixed own-step (FAA(0)) linearization points through the window
  // where the writer sits between its shard win and its digest step.
  auto scenario = testing::fixed_scenario(
      factory, {{{"Inc", unit(), 0}, {"Inc", unit(), 0}},
                {{"Read", unit(), 1}, {"Read", unit(), 1}}});
  verify::CounterSpec spec;
  auto res = check(scenario, 2, spec, "gsum");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(C2StoreSim, SumDigestNeverLeadsTheShardCounters) {
  auto factory = counter_twin("gsum", svc::AggRead::kDigest);
  // Incrementer (proc 0 routes to shard 0); observer reads the digest THEN
  // the shard counter. Shard counters are monotone, so if the digest ever
  // led, some execution would show digest=1 while the (later!) shard read
  // still returns 0.
  auto scenario = testing::fixed_scenario(
      factory, {{{"Inc", unit(), 0}},
                {{"Read", unit(), 1}, {"ReadShard", num(0), 1}}});
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  auto pairs = observer_read_pairs(tree);
  ASSERT_FALSE(pairs.empty());
  for (auto [digest, shard] : pairs) {
    EXPECT_LE(digest, shard)
        << "sum digest ran ahead of the shard counter: the shard-first write "
           "order in CounterRef::inc was reordered";
  }
}

TEST(C2StoreSim, ShardCounterMayLeadTheSumDigest) {
  auto factory = counter_twin("gsum", svc::AggRead::kDigest);
  // Observer reads the shard THEN the digest: some execution must catch the
  // incrementer between its shard win and its digest step (shard=1, digest
  // still 0). If this witness disappears, the write order changed.
  auto scenario = testing::fixed_scenario(
      factory, {{{"Inc", unit(), 0}},
                {{"ReadShard", num(0), 1}, {"Read", unit(), 1}}});
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  auto pairs = observer_read_pairs(tree);
  bool lag_witnessed = false;
  for (auto [shard, digest] : pairs) {
    if (shard == 1 && digest == 0) lag_witnessed = true;
  }
  EXPECT_TRUE(lag_witnessed)
      << "no execution shows the documented shard-ahead-of-digest lag window";
}

// --- 3. both twins, AggRead::kDoubleCollect: linearizable only ---------------

TEST(C2StoreSim, DoubleCollectScanLinSweep) {
  auto factory = max_twin("smax", /*shards=*/4, svc::AggRead::kDoubleCollect);
  auto gen = [](int, int, Rng& rng) {
    if (rng.next_bool(0.5)) return Invocation{"WriteMax", num(rng.next_in(0, 6)), 0};
    return Invocation{"ReadMax", unit(), 0};
  };
  verify::MaxRegisterSpec spec;
  testing::WorkloadOptions opts;
  opts.n = 3;
  opts.ops_per_proc = 3;
  EXPECT_TRUE(testing::lin_sweep(factory, gen, spec, opts, /*num_seeds=*/25, "smax"));
}

TEST(C2StoreSim, DoubleCollectCounterLinSweep) {
  auto factory = counter_twin("sctr", svc::AggRead::kDoubleCollect);
  auto gen = [](int, int, Rng& rng) {
    if (rng.next_bool(0.6)) return Invocation{"Inc", unit(), 0};
    return Invocation{"Read", unit(), 0};
  };
  verify::CounterSpec spec;
  testing::WorkloadOptions opts;
  opts.n = 3;
  opts.ops_per_proc = 3;
  EXPECT_TRUE(testing::lin_sweep(factory, gen, spec, opts, /*num_seeds=*/25, "sctr"));
}

// PINNED: the double-collect read is not prefix-closed — at the node where a
// completed write has landed on a shard the reader's in-flight collect already
// passed, one extension lets the collect stabilise to the OLD value while
// another forces a rescan to the new one; no single early linearization choice
// survives both. If this starts passing, the checker (or the bridge) broke.
TEST(C2StoreSim, DoubleCollectScanNotStronglyLinearizable) {
  auto factory = max_twin("smax", /*shards=*/2, svc::AggRead::kDoubleCollect);
  auto scenario = testing::fixed_scenario(
      factory, {{{"ReadMax", unit(), 0}},
                {{"WriteMax", num(2), 1}, {"WriteMax", num(1), 1}}});
  verify::MaxRegisterSpec spec;
  auto res = check(scenario, 2, spec, "smax");
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable)
      << "collect-based aggregate reads must NOT verify as strongly "
         "linearizable — this refutation is why global_max reads a digest";
}

// PINNED (the negative control for the counter-sum digest of 2c): the same
// Inc/Inc/Read schedule family over the double-collect SCAN sum must keep
// refuting — if this starts passing, the checker or the bridge broke, and the
// digest's reason to exist would be silently erased.
TEST(C2StoreSim, DoubleCollectCounterNotStronglyLinearizable) {
  auto factory = counter_twin("sctr", svc::AggRead::kDoubleCollect);
  auto scenario = testing::fixed_scenario(
      factory,
      {{{"Inc", unit(), 0}}, {{"Inc", unit(), 1}}, {{"Read", unit(), 2}}});
  verify::CounterSpec spec;
  auto res = check(scenario, 3, spec, "sctr");
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable);
}

// PINNED: the op counter kept in lane cells (telemetry/telemetry.h). Each lane
// bumps its own cell and metrics_snapshot() sums ONE pass over the cells for
// ops_total — the counter twin's kOnePass read with one shard per
// incrementing process. A reader that already scanned lane 0 as empty cannot
// commit a return value at any of its own steps: whether the completed Inc on
// lane 0 counts depends on what the read finds in lane 1 LATER, so no
// prefix-closed assignment exists. This is why ops_total is documented as a
// diagnostic, exact only at quiescence, and not a digest read the hot path
// pays a shared RMW for.
TEST(TelemetrySim, LaneScanReadNotStronglyLinearizable) {
  auto factory = counter_twin("tops", svc::AggRead::kOnePass);
  auto scenario = testing::fixed_scenario(
      factory,
      {{{"Inc", unit(), 0}}, {{"Inc", unit(), 1}}, {{"Read", unit(), 2}}});
  verify::CounterSpec spec;
  auto res = check(scenario, 3, spec, "tops");
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable)
      << "the one-pass lane scan verified strongly linearizable — the pinned "
         "refutation (the reason ops_total is only a diagnostic) is gone";
}

// --- 3b. segment publication (the unbounded-array growth protocol) ----------
//
// The native runtime's SegmentedArray grows by publishing doubling segments,
// and C2Store materialises its shard slots, through one function:
// rt::PublishOnce::get. A claim test&set elects one initialiser, which
// CONSTRUCTS every cell and THEN publishes through a register write;
// accessors gate on peek() and treat an unpublished segment as all-initial.
// The checker runs that code, rt::BasicPublishOnce over sim::SimMem, under a
// small adapter (Segments): base-1 doubling segments of readable test&set
// cells, each cell constructed at 1 (uninitialised memory: garbage that looks
// set) and zeroed by the winner's `make`, one store step per cell, as
// value-initialisation does natively. Verified here:
//
//   (i)   the publication-order protocol is strongly linearizable, per cell
//         facet, including the interleavings where the claim race and the
//         cell operations overlap — and across distinct segments;
//   (ii)  a copy with the publish moved BEFORE the init (the tempting "make
//         the segment visible early" reorder) is REFUTED: a reader passes the
//         gate early, observes garbage, and the late initialisation erases
//         observed state. PINNED so the reorder fails loudly here instead of
//         only contradicting runtime/publish_once.h's comment;
//   (iii) a `make` that throws poisons the cell: no get returns a pointer,
//         the losers raise the named PreconditionError instead of spinning,
//         and peek() stays null.

/// One segment cell, a readable test&set byte as rt::BasicReadableTAS (TAS is
/// one exchange, Read one load), constructed at 1: garbage that looks set.
/// Construction takes no step; only MakeSegment's store makes the cell fresh.
struct GarbageCell : sim::SimWord<uint8_t> {
  GarbageCell() : SimWord(1) {}
};

/// The `make` of segment s (2^s cells): allocate, then zero each cell with one
/// store step. The two halves are separate so PublishBeforeInit can publish
/// between them.
struct MakeSegment {
  int s;
  std::unique_ptr<GarbageCell[]> allocate() const {
    return std::make_unique<GarbageCell[]>(size_t{1} << s);
  }
  void initialise(GarbageCell* cells) const {
    for (size_t c = 0; c < (size_t{1} << s); ++c) cells[c].store(0);
  }
  std::unique_ptr<GarbageCell[]> operator()() const {
    auto cells = allocate();
    initialise(cells.get());
    return cells;
  }
};

/// rt::SegmentedArray<ReadableTAS> at base 1 (segment s covers
/// [2^s − 1, 2^(s+1) − 1)) over a spine of publication cells `Slot`. Ops
/// record on per-index facets (`cell_object(idx)`), so the checker certifies
/// each cell as a readable test&set via verify::TasSpec.
template <typename Slot>
class Segments {
 public:
  static std::string cell_object(size_t idx) {
    return "seg[" + std::to_string(idx) + "]";
  }

  /// Recorded as "TAS" -> 0|1: the slot's get, then the cell's exchange.
  int64_t test_and_set(sim::Ctx& ctx, size_t idx) {
    return as_num(sim::record_op(ctx, cell_object(idx), "TAS", unit(), [&] {
      const int s = segment_of(idx);
      GarbageCell* seg = spine_[s].get(MakeSegment{s});
      return num(seg[idx - start(s)].exchange(1));
    }));
  }

  /// Recorded as "Read" -> 0|1. Never constructs: an unpublished segment
  /// reads as 0, and the peek is the step that justifies it.
  int64_t read(sim::Ctx& ctx, size_t idx) {
    return as_num(sim::record_op(ctx, cell_object(idx), "Read", unit(), [&] {
      const int s = segment_of(idx);
      GarbageCell* seg = spine_[s].peek();
      return num(seg ? seg[idx - start(s)].load() : 0);
    }));
  }

 private:
  static int segment_of(size_t idx) { return std::bit_width(idx + 1) - 1; }
  static size_t start(int s) { return (size_t{1} << s) - 1; }

  Slot spine_[2];  // indices 0..2
};

using ServingSlot = rt::BasicPublishOnce<sim::SimMem, GarbageCell[]>;
using ServingSegments = Segments<ServingSlot>;

/// rt::BasicPublishOnce<sim::SimMem, GarbageCell[]> with ONE step moved: the
/// winner publishes the pointer before its init stores. The runtime class
/// carries no mutant switch.
class PublishBeforeInit {
 public:
  GarbageCell* peek() const { return obj_.load(); }

  GarbageCell* get(const MakeSegment& make) {
    if (GarbageCell* p = peek()) return p;
    if (claim_.test_and_set() == 0) {
      owned_ = make.allocate();
      obj_.store(owned_.get());  // the bug: published before initialised
      make.initialise(owned_.get());
      return owned_.get();
    }
    GarbageCell* p = nullptr;
    while (!(p = peek())) {
      C2SL_CHECK(!poisoned_.load(), "lazy initialization failed");
    }
    return p;
  }

 private:
  rt::BasicReadableTAS<sim::SimMem> claim_;
  sim::SimWord<bool> poisoned_{false};  // never set: this make cannot throw
  sim::SimWord<GarbageCell*> obj_{nullptr};
  std::unique_ptr<GarbageCell[]> owned_;
};

/// Explores `scenario` on two processes at the depth that bounds the
/// publication losers' spins.
sim::ExecGraph explore_publication(const sim::ScenarioFn& scenario) {
  sim::ExploreOptions opts;
  opts.max_depth = 24;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  EXPECT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  return tree;
}

/// Process 0 sets cell 1 while process 1 reads it twice: a reader racing the
/// whole publication. Before the publish it must report 0 from the gate
/// alone (never touching an uninitialised cell), after it the initialised
/// cell; the second read pins monotonicity across the window where the
/// broken order leaks garbage.
template <typename Slot>
sim::ExecGraph tas_against_two_reads() {
  return explore_publication([](sim::SimRun& run) {
    auto arr = std::make_shared<Segments<Slot>>();
    run.sched.spawn(0, [arr](sim::Ctx& ctx) { arr->test_and_set(ctx, 1); });
    run.sched.spawn(1, [arr](sim::Ctx& ctx) {
      arr->read(ctx, 1);
      arr->read(ctx, 1);
    });
  });
}

TEST(C2StoreSim, SegmentPublicationStronglyLinearizable) {
  // Two processes race TAS on index 1 — the first cell of a 2-cell segment —
  // so the claim race, both init writes, the publish, the loser's spin (its
  // pointer and poison loads) and both cell exchanges all interleave. Each
  // cell facet must admit a prefix-closed linearization.
  sim::ExecGraph tree = explore_publication([](sim::SimRun& run) {
    auto arr = std::make_shared<ServingSegments>();
    run.sched.spawn(0, [arr](sim::Ctx& ctx) { arr->test_and_set(ctx, 1); });
    run.sched.spawn(1, [arr](sim::Ctx& ctx) { arr->test_and_set(ctx, 1); });
  });
  verify::TasSpec spec;
  auto res = check_tree(tree, spec, ServingSegments::cell_object(1));
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(C2StoreSim, SegmentPublicationReadersNeverSeeGarbage) {
  sim::ExecGraph tree = tas_against_two_reads<ServingSlot>();
  verify::TasSpec spec;
  auto res = check_tree(tree, spec, ServingSegments::cell_object(1));
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(C2StoreSim, SegmentPublicationAcrossSegmentsIndependent) {
  // Ops on indices 0 and 1 live in DIFFERENT segments (base-1 doubling):
  // two unrelated publications in flight at once. Strong linearizability is
  // local — each cell facet verifies on the shared tree.
  sim::ExecGraph tree = explore_publication([](sim::SimRun& run) {
    auto arr = std::make_shared<ServingSegments>();
    run.sched.spawn(0, [arr](sim::Ctx& ctx) {
      arr->test_and_set(ctx, 0);
      arr->read(ctx, 1);
    });
    run.sched.spawn(1, [arr](sim::Ctx& ctx) { arr->test_and_set(ctx, 1); });
  });
  verify::TasSpec spec;
  for (size_t idx : {size_t{0}, size_t{1}}) {
    auto res = check_tree(tree, spec, ServingSegments::cell_object(idx));
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.strongly_linearizable)
        << "cell facet " << idx << ":\n" << res.report;
  }
}

// PINNED: publishing the segment before initialising its cells lets a reader
// through the gate while the cells still hold garbage. The concrete anomaly
// in the explored tree: Read -> 1 (garbage) followed by Read -> 0 (the
// winner's late init write erased the observed state) with no Reset — not
// even linearizable, so certainly not strongly linearizable. If this starts
// passing, either the cells stopped starting as garbage or the checker broke.
TEST(C2StoreSim, SegmentPublishBeforeInitRefuted) {
  sim::ExecGraph tree = tas_against_two_reads<PublishBeforeInit>();
  verify::TasSpec spec;
  auto res = check_tree(tree, spec, Segments<PublishBeforeInit>::cell_object(1));
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable)
      << "publish-before-init must NOT verify — this refutation is why "
         "PublishOnce::get (segments and shard slots alike) constructs "
         "before the pointer store";
}

/// What a failing `make` throws.
struct MakeFailed : std::runtime_error {
  MakeFailed() : std::runtime_error("make failed") {}
};

// Two processes call get on one cell whose `make` takes one step and throws.
// The loser, spinning on the pointer, must see the poison flag and raise the
// named error; the winner rethrows make's own. Checked on every complete leaf
// (truncated leaves are spins the depth bound cut, not finished runs).
TEST(C2StoreSim, PublishOncePoisonReachesEveryLoser) {
  struct Poisoned {
    rt::BasicPublishOnce<sim::SimMem, int> cell;
    sim::SimWord<int> made{0};  // the one step of the failing make
  };
  sim::ExecGraph tree = explore_publication([](sim::SimRun& run) {
    auto obj = std::make_shared<Poisoned>();
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [obj](sim::Ctx& ctx) {
        sim::record_op(ctx, "pub", "Get", unit(), [&] {
          try {
            obj->cell.get([&]() -> std::unique_ptr<int> {
              obj->made.store(1);
              throw MakeFailed();
            });
            return str("pointer");
          } catch (const PreconditionError&) {
            return str("PreconditionError");
          } catch (const MakeFailed&) {
            return str("MakeFailed");
          }
        });
        sim::record_op(ctx, "pub", "Peek", unit(), [&] {
          return str(obj->cell.peek() ? "pointer" : "null");
        });
      });
    }
  });
  int complete = 0;
  tree.for_each_path([&](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    if (!node.all_done) return;
    ++complete;
    std::map<sim::OpId, std::string> op_name;
    std::map<std::string, int> gets;
    int null_peeks = 0;
    for (const sim::Event& e : history) {
      if (e.kind == sim::Event::Kind::kInvoke) op_name[e.op] = e.name;
      if (e.kind != sim::Event::Kind::kRespond) continue;
      if (op_name[e.op] == "Get") ++gets[as_str(e.payload)];
      if (op_name[e.op] == "Peek" && as_str(e.payload) == "null") ++null_peeks;
    }
    const std::string leaf = "leaf " + std::to_string(node.id);
    EXPECT_EQ(gets["pointer"], 0) << leaf << ": a get returned a pointer";
    EXPECT_EQ(gets["MakeFailed"], 1) << leaf << ": the winner must rethrow make's error";
    EXPECT_EQ(gets["PreconditionError"], 1)
        << leaf << ": the loser must raise the named error";
    EXPECT_EQ(null_peeks, 2) << leaf << ": a poisoned cell publishes nothing";
  });
  EXPECT_GT(complete, 0) << "no run finished: a loser spins past the depth bound";
}

// --- 4. the max twin, AggRead::kOnePass: not even linearizable ---------------

TEST(C2StoreSim, NaiveOnePassScanNotEvenStronglyLinearizable) {
  auto factory = max_twin("smax", /*shards=*/2, svc::AggRead::kOnePass);
  auto scenario = testing::fixed_scenario(
      factory, {{{"ReadMax", unit(), 0}},
                {{"WriteMax", num(2), 1}, {"WriteMax", num(1), 1}}});
  verify::MaxRegisterSpec spec;
  auto res = check(scenario, 2, spec, "smax");
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable);
}

// The witness history, checked directly: the reader passes shard 0, the writer
// lands 2 on shard 0 and then 1 on shard 1, the reader sees the 1 and returns
// it — but 2 was fully written before 1, so NO point of the read's interval
// has max value 1. Returning 2 from the same interval is fine.
TEST(C2StoreSim, NaiveScanWitnessHistoryIsNotLinearizable) {
  auto make_history = [](int64_t read_resp) {
    std::vector<sim::OpRecord> ops(3);
    ops[0].id = 0;
    ops[0].proc = 0;
    ops[0].object = "smax";
    ops[0].name = "ReadMax";
    ops[0].args = unit();
    ops[0].resp = num(read_resp);
    ops[0].complete = true;
    ops[0].inv_seq = 0;
    ops[0].resp_seq = 7;
    ops[1].id = 1;
    ops[1].proc = 1;
    ops[1].object = "smax";
    ops[1].name = "WriteMax";
    ops[1].args = num(2);
    ops[1].resp = unit();
    ops[1].complete = true;
    ops[1].inv_seq = 1;
    ops[1].resp_seq = 2;
    ops[2].id = 2;
    ops[2].proc = 1;
    ops[2].object = "smax";
    ops[2].name = "WriteMax";
    ops[2].args = num(1);
    ops[2].resp = unit();
    ops[2].complete = true;
    ops[2].inv_seq = 3;
    ops[2].resp_seq = 4;
    return ops;
  };
  verify::MaxRegisterSpec spec;
  auto bad = verify::check_linearizability(make_history(1), spec);
  ASSERT_TRUE(bad.decided);
  EXPECT_FALSE(bad.linearizable) << "ReadMax -> 1 has no linearization point";
  auto good = verify::check_linearizability(make_history(2), spec);
  ASSERT_TRUE(good.decided);
  EXPECT_TRUE(good.linearizable) << good.explanation;
}

// --- 5. the routing-epoch hand-off -------------------------------------------
//
// SimRoutingEpoch runs the online-resize protocol (runtime/routing_epoch.h
// + the epoch-stamped refs in service/c2store.h) over the store's own spine,
// rt::BasicRoutingEpoch<sim::SimMem>: one stamp word, per-epoch one-shot
// claims, migration by monotone write_max replay, and the writers' own Dekker
// settle loop (rt::EpochCodec::settle, which ShardRef::settle also runs). Key 1
// under the identity mask MOVES on a 1 -> 2 resize (slot 0 -> slot 1), so
// these schedules force the full hand-off: primary write to the old slot,
// migration replay, dual-write window, fresh readers on the new slot.

// The acceptance verdict: a key's max facet stays strongly linearizable
// ACROSS the migration cut, with the writer, the resizer and a fresh reader
// all overlapping.
TEST(C2StoreSim, RoutingEpochHandoffStronglyLinearizable) {
  std::shared_ptr<svc::SimRoutingEpoch> re;
  auto scenario = [&re](sim::SimRun& run) {
    re = std::make_shared<svc::SimRoutingEpoch>("re", run.n(),
                                                /*initial_shards=*/1,
                                                /*max_shards=*/2);
    run.sched.spawn(0, [re](sim::Ctx& ctx) { re->write_max(ctx, 1, 1); });
    run.sched.spawn(1, [re](sim::Ctx& ctx) { re->resize(ctx, 2); });
    run.sched.spawn(2, [re](sim::Ctx& ctx) { re->read_max(ctx, 1); });
  };
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::MaxRegisterSpec spec;
  auto res = check_tree(tree, spec, re->key_object(1));
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Racing resizers: the one-shot claim admits exactly one installer; the loser
// reports without touching the spine, and the key facet still verifies.
TEST(C2StoreSim, RoutingEpochRacingResizersKeyFacetStronglyLinearizable) {
  std::shared_ptr<svc::SimRoutingEpoch> re;
  auto scenario = [&re](sim::SimRun& run) {
    re = std::make_shared<svc::SimRoutingEpoch>("re", run.n(),
                                                /*initial_shards=*/1,
                                                /*max_shards=*/2);
    run.sched.spawn(0, [re](sim::Ctx& ctx) { re->resize(ctx, 2); });
    run.sched.spawn(1, [re](sim::Ctx& ctx) { re->resize(ctx, 2); });
    // A writer only (the hand-off WITH a racing reader is the previous
    // test): what this tree pins is the claim race — exactly one resizer installs, the loser leaves
    // the spine untouched, and the writer's settle loop stays correct when the
    // install lands under it. The shards_of checks inside the spine double
    // as the "loser never reads an uninstalled cell" check on every schedule.
    run.sched.spawn(2, [re](sim::Ctx& ctx) { re->write_max(ctx, 1, 1); });
  };
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::MaxRegisterSpec spec;
  auto res = check_tree(tree, spec, re->key_object(1));
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// PINNED refutation: publishing the new epoch BEFORE the migration replay
// (serve-before-replay — the tempting "flip the table first, copy at leisure"
// reorder) lets a fresh reader route to a new slot and read 0 after a
// completed write. Not even linearizable; if this starts passing, the
// publish-after-replay order in C2Store::resize_with_lane lost its mechanised
// justification.
TEST(C2StoreSim, RoutingEpochServeBeforeReplayRefuted) {
  std::shared_ptr<svc::SimRoutingEpoch> re;
  auto scenario = [&re](sim::SimRun& run) {
    re = std::make_shared<svc::SimRoutingEpoch>("re", run.n(),
                                                /*initial_shards=*/1,
                                                /*max_shards=*/2,
                                                Variant::kPublishBeforeReplay);
    run.sched.spawn(0, [re](sim::Ctx& ctx) { re->write_max(ctx, 1, 1); });
    run.sched.spawn(1, [re](sim::Ctx& ctx) { re->resize(ctx, 2); });
    run.sched.spawn(2, [re](sim::Ctx& ctx) { re->read_max(ctx, 1); });
  };
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::MaxRegisterSpec spec;
  auto res = check_tree(tree, spec, re->key_object(1));
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable)
      << "serve-before-replay must NOT verify — this refutation is why "
         "resize publishes the epoch only after the migration replay";
}

// PINNED refutation: a writer that skips the settle loop (the Dekker recheck
// after its primary write) loses its write across the migration. It binds
// under epoch 0 and writes slot 0 after the resizer's replay has read slot 0;
// the resizer publishes, and a fresh reader routes to slot 1 and reads 0
// after the completed write. Not even linearizable; if this starts passing,
// ShardRef::settle's re-application lost its mechanised justification.
TEST(C2StoreSim, RoutingEpochWriterWithoutSettleRefuted) {
  std::shared_ptr<svc::SimRoutingEpoch> re;
  auto scenario = [&re](sim::SimRun& run) {
    re = std::make_shared<svc::SimRoutingEpoch>("re", run.n(),
                                                /*initial_shards=*/1,
                                                /*max_shards=*/2,
                                                Variant::kWriterSkipsSettle);
    run.sched.spawn(0, [re](sim::Ctx& ctx) { re->write_max(ctx, 1, 1); });
    run.sched.spawn(1, [re](sim::Ctx& ctx) { re->resize(ctx, 2); });
    run.sched.spawn(2, [re](sim::Ctx& ctx) { re->read_max(ctx, 1); });
  };
  sim::ExploreOptions opts;
  opts.max_depth = 32;
  opts.max_nodes = 400000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::MaxRegisterSpec spec;
  auto res = check_tree(tree, spec, re->key_object(1));
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable)
      << "a writer without the settle loop must NOT verify — this refutation "
         "is why every mutating op rechecks the stamp after its write";
}

}  // namespace
}  // namespace c2sl
