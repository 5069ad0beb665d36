// Mechanical REFUTATIONS of strong linearizability — the §5 side of the paper.
//
//  * Herlihy–Wing queue (fetch&add + swap): linearizable but not strongly
//    linearizable. Witness shape (cf. Lemma 12's disagreement scenario): once
//    Enq(10) has claimed slot 0 but not written it while Enq(20) completed, a
//    dequeuer either observes 20 (forcing 20 first) or, after the write lands,
//    observes 10 (forcing 10 first) — no single linearization of the common
//    prefix extends both futures.
//  * AADGMS snapshot (read/write): the original Golab–Higham–Woelfel exhibit.
//  * CollectMaxRegister (read/write): wait-free and linearizable; the
//    Denysyuk–Woelfel impossibility says unbounded wait-free SL max registers
//    from registers cannot exist, and the checker finds a concrete violation.
//
// Together with strong_lin_positive_test.cpp, this demonstrates that the
// checker separates the two classes — these verdicts are findings, not
// assumptions.
#include <gtest/gtest.h>

#include "baselines/aadgms_snapshot.h"
#include "baselines/herlihy_wing_queue.h"
#include "core/max_register_variants.h"
#include "harness.h"
#include "runtime/native_tas_family.h"
#include "sim/sim_mem.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

namespace c2sl {
namespace {

using verify::Invocation;

verify::StrongLinResult check(const sim::ScenarioFn& scenario, int n,
                              const verify::Spec& spec, const std::string& object,
                              int max_depth, size_t max_nodes,
                              std::vector<sim::Choice> prefix = {}) {
  sim::ExploreOptions opts;
  opts.max_depth = max_depth;
  opts.max_nodes = max_nodes;
  opts.prefix = std::move(prefix);
  sim::ExecTree tree = sim::explore(n, scenario, opts);
  verify::StrongLinOptions slopts;
  slopts.object = object;
  slopts.max_search_nodes = 30'000'000;
  return verify::check_strong_linearizability(tree, spec, slopts);
}

TEST(StrongLinNegative, HerlihyWingQueueRefuted) {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<baselines::HerlihyWingQueue>(w, "queue");
  };
  // p0: Enq(10); p1: Enq(20); p2: Deq. The conflict needs ~10 steps.
  auto scenario = testing::fixed_scenario(factory, {{{"Enq", num(10), 0}},
                                                    {{"Enq", num(20), 1}},
                                                    {{"Deq", unit(), 2}}});
  verify::QueueSpec spec;
  auto res = check(scenario, 3, spec, "queue", /*max_depth=*/14, /*max_nodes=*/500000);
  ASSERT_TRUE(res.decided) << "search budget exhausted";
  EXPECT_FALSE(res.strongly_linearizable)
      << "Herlihy-Wing queue must NOT be strongly linearizable (Theorem 17 regime)";
  EXPECT_GE(res.witness_node, 0);
  // The diagnostic report embeds the conflicting history.
  EXPECT_NE(res.report.find("no prefix-closed linearization function"),
            std::string::npos);
}

// Control: the same scenario IS linearizable on every explored schedule — the
// violation is about prefix-closure, not about linearizability.
TEST(StrongLinNegative, HerlihyWingQueueStillLinearizable) {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<baselines::HerlihyWingQueue>(w, "queue");
  };
  auto scenario = testing::fixed_scenario(factory, {{{"Enq", num(10), 0}},
                                                    {{"Enq", num(20), 1}},
                                                    {{"Deq", unit(), 2}}});
  sim::ExploreOptions opts;
  opts.max_depth = 14;
  opts.max_nodes = 500000;
  sim::ExecTree tree = sim::explore(3, scenario, opts);
  verify::QueueSpec spec;
  int checked = 0;
  for (const auto& node : tree.nodes) {
    if (!node.all_done) continue;
    auto ops = verify::operations_from_events(tree.history_at(node.id));
    auto lin = verify::check_linearizability(verify::filter_object(ops, "queue"), spec);
    EXPECT_TRUE(lin.linearizable) << "node " << node.id << "\n" << lin.explanation;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// AADGMS operations are long (a scan is >= 2n reads), so the conflict region
// sits too deep for full-tree exploration. Guided refutation: sample random
// schedule prefixes and exhaustively explore the shallow subtree after each —
// a prefix-closure conflict inside ANY subtree refutes strong linearizability
// of the whole implementation.
TEST(StrongLinNegative, AadgmsSnapshotRefutedGuided) {
  auto factory = [](sim::World& w, int n) {
    return std::make_shared<baselines::AadgmsSnapshot>(w, "snap", n);
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Update", num(1), 0}, {"Update", num(2), 0}},
                {{"Scan", unit(), 1}},
                {{"Update", num(3), 2}}});
  verify::SnapshotSpec spec(3);

  bool refuted = false;
  for (uint64_t seed = 0; seed < 60 && !refuted; ++seed) {
    for (uint64_t prefix_len : {6u, 10u, 14u, 18u}) {
      // Record a replayable schedule prefix.
      sim::SimRun probe(3);
      scenario(probe);
      sim::RandomStrategy random(seed);
      sim::RecordingStrategy recorder(random);
      probe.sched.run(recorder, prefix_len);
      if (recorder.recorded().size() < prefix_len) break;  // programs finished

      sim::ExploreOptions opts;
      opts.prefix = recorder.recorded();
      opts.max_depth = 12;
      opts.max_nodes = 60000;
      sim::ExecTree tree = sim::explore(3, scenario, opts);
      verify::StrongLinOptions slopts;
      slopts.object = "snap";
      slopts.max_search_nodes = 4'000'000;
      auto res = verify::check_strong_linearizability(tree, spec, slopts);
      if (res.decided && !res.strongly_linearizable) {
        refuted = true;
        break;
      }
    }
  }
  EXPECT_TRUE(refuted)
      << "AADGMS snapshot must NOT be strongly linearizable (GHW 2011)";
}

// The plain Aspnes–Attiya–Censor tree max register (registers only) fails the
// model check as well: its read path chases switch bits whose meaning depends
// on concurrent writers, so read linearization points are future-dependent.
// (Helmi–Higham–Woelfel's positive result for bounded SL max registers uses a
// modified construction, which this exhibit motivates.)
TEST(StrongLinNegative, PlainAacTreeMaxRegisterRefuted) {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<core::BoundedRWMaxRegister>(w, "maxreg", 4);
  };
  auto scenario = testing::fixed_scenario(factory, {{{"WriteMax", num(3), 0}},
                                                    {{"WriteMax", num(1), 1}},
                                                    {{"ReadMax", unit(), 2}}});
  verify::MaxRegisterSpec spec;
  auto res = check(scenario, 3, spec, "maxreg", /*max_depth=*/24, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided) << "search budget exhausted";
  EXPECT_FALSE(res.strongly_linearizable);
  EXPECT_GE(res.witness_node, 0);
}

TEST(StrongLinNegative, CollectMaxRegisterRefuted) {
  auto factory = [](sim::World& w, int n) {
    return std::make_shared<core::CollectMaxRegister>(w, "maxreg", n);
  };
  // Readers collecting lane-by-lane while writers land: the reader's return
  // value depends on the future relative to its first collect read.
  auto scenario = testing::fixed_scenario(
      factory, {{{"WriteMax", num(2), 0}},
                {{"WriteMax", num(1), 1}},
                {{"ReadMax", unit(), 2}, {"ReadMax", unit(), 2}}});
  verify::MaxRegisterSpec spec;
  auto res = check(scenario, 3, spec, "maxreg", /*max_depth=*/24, /*max_nodes=*/800000);
  ASSERT_TRUE(res.decided) << "search budget exhausted";
  EXPECT_FALSE(res.strongly_linearizable)
      << "collect-based max register must NOT be strongly linearizable "
         "(Denysyuk-Woelfel impossibility)";
}

// --- mutants of the serving code's fetch&increment and set ------------------
//
// The certified frontier (rt::BasicFetchIncrement) and the taken-prefix hint
// (rt::BasicSet) are native-only refinements (runtime/native_tas_family.h).
// strong_lin_positive_test.cpp verifies the runtime classes themselves over
// sim::SimMem; here each test-local copy changes ONE step of them, and the
// checker must refute it. The runtime classes carry no mutant switch.

enum class FaiMutant {
  /// fetch_and_increment publishes frontier i+1 BEFORE its exchange on cell i
  /// decides the winner.
  kFrontierBeforeExchange,
  /// read() returns the certified lower bound (the frontier load) without
  /// reading the candidate cell, the read that confirms it is still unset.
  kUnconfirmedRead,
};

/// rt::BasicFetchIncrement<sim::SimMem> with mutant M's one step changed.
template <FaiMutant M>
class MutantFetchIncrement {
 public:
  int64_t fetch_and_increment() {
    for (size_t i = set_bound();; ++i) {
      if (observed_set(i)) continue;
      if (M == FaiMutant::kFrontierBeforeExchange) publish(i + 1);  // the bug
      if (cells_.test_and_set(i) == 0) {
        if (M != FaiMutant::kFrontierBeforeExchange) publish(i + 1);
        return static_cast<int64_t>(i);
      }
    }
  }

  int64_t read() const {
    if (M == FaiMutant::kUnconfirmedRead) return frontier_.load();  // the bug
    for (;;) {
      size_t lo = set_bound();
      if (!observed_set(lo)) return static_cast<int64_t>(lo);
    }
  }

 private:
  void publish(size_t f) { frontier_.store(static_cast<int64_t>(f)); }
  bool observed_set(size_t i) const { return cells_.read(i) == 1; }

  size_t set_bound() const {
    const size_t f = static_cast<size_t>(frontier_.load());
    if (!observed_set(f)) return f;
    size_t lo = f + 1;
    size_t step = 1;
    size_t hi = f + step;
    while (observed_set(hi)) {
      lo = hi + 1;
      step *= 2;
      hi = f + step;
    }
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (observed_set(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  rt::BasicReadableTasArray<sim::SimMem> cells_;
  sim::SimWord<int64_t> frontier_{0};
};

/// rt::BasicSet<sim::SimMem> whose take() counts every cell its sweep passed
/// as dead, the EMPTY ones too, so it can publish a hint past a cell where a
/// pending put is about to land.
class HintPastEmptySet {
 public:
  static constexpr int64_t kEmpty = INT64_MIN;

  void put(int64_t x) {
    int64_t m = max_.fetch_and_increment();
    items_.cell(static_cast<size_t>(m)).v.store(x);
  }

  int64_t take() {
    const size_t skip = static_cast<size_t>(hint_.load());
    int64_t taken_old = 0;
    int64_t max_old = 0;
    for (;;) {
      int64_t taken_new = 0;
      int64_t max_new = max_.read();
      size_t dead = skip;
      for (int64_t c = static_cast<int64_t>(skip); c < max_new; ++c) {
        int64_t x = items_.peek(static_cast<size_t>(c))->v.load();
        ++dead;  // the bug: an empty cell is not dead
        if (x != kEmpty) {
          if (ts_.test_and_set(static_cast<size_t>(c)) == 0) {
            publish_hint(dead);
            return x;
          }
          ++taken_new;
        }
      }
      if (taken_new == taken_old && max_new == max_old) {
        publish_hint(dead);
        return kEmpty;
      }
      taken_old = taken_new;
      max_old = max_new;
    }
  }

 private:
  void publish_hint(size_t dead) {
    if (dead > static_cast<size_t>(hint_.load())) hint_.store(static_cast<int64_t>(dead));
  }

  rt::BasicFetchIncrement<sim::SimMem> max_;
  sim::SimArray<rt::detail::SetItemCell<sim::SimMem>> items_;
  rt::BasicReadableTasArray<sim::SimMem> ts_;
  sim::SimWord<int64_t> hint_{0};
};

template <FaiMutant M>
sim::ScenarioFn fai_fai_read() {
  auto factory = [](sim::World&, int) {
    return std::make_shared<testing::MemFaiObject<MutantFetchIncrement<M>>>("nfai");
  };
  return testing::fixed_scenario(
      factory, {{{"FAI", unit(), 0}}, {{"FAI", unit(), 1}}, {{"Read", unit(), 2}}});
}

// P0 and P1 both find cell 0 unset and publish frontier 1 before exchanging;
// the reader then loads 1, sees cell 1 unset and returns 1 while neither FAI
// has won. At that node one FAI must already be linearized with response 0,
// but either may still win cell 0. Guided: P1 has found cell 0 unset (frontier
// load, probe, loop load) and P0 has also stored frontier 1.
TEST(StrongLinNegative, FrontierPublishedBeforeExchangeRefuted) {
  verify::FaiSpec spec;
  std::vector<sim::Choice> prefix(3, sim::Choice{1, false});
  prefix.insert(prefix.end(), 4, sim::Choice{0, false});
  auto res = check(fai_fai_read<FaiMutant::kFrontierBeforeExchange>(), 3, spec,
                   "nfai", /*max_depth=*/32, /*max_nodes=*/400000, prefix);
  ASSERT_TRUE(res.decided) << "search budget exhausted";
  EXPECT_FALSE(res.strongly_linearizable);
}

// P0 wins cell 0 and P1 cell 1; P1 publishes frontier 2, then P0's late store
// moves it back to 1. Both FAIs complete, and a read that trusts the frontier
// returns 1 where the value is 2: not even linearizable.
TEST(StrongLinNegative, UnconfirmedFrontierReadRefuted) {
  verify::FaiSpec spec;
  auto res = check(fai_fai_read<FaiMutant::kUnconfirmedRead>(), 3, spec, "nfai",
                   /*max_depth=*/32, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided) << "search budget exhausted";
  EXPECT_FALSE(res.strongly_linearizable);
}

// P0's put draws Max ticket 0 and pauses before its item store. P1's first
// take sweeps cell 0 empty twice, returns EMPTY and publishes hint 1. The put
// completes, and P1's second take starts past cell 0 and returns EMPTY with
// item 7 in the set: not even linearizable. Guided: P0's Max increment (five
// steps) is done.
TEST(StrongLinNegative, TakeHintPastAnEmptyCellRefuted) {
  auto factory = [](sim::World&, int) {
    return std::make_shared<testing::MemSetObject<HintPastEmptySet>>("nset");
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Put", num(7), 0}}, {{"Take", unit(), 1}, {"Take", unit(), 1}}});
  verify::SetSpec spec;
  auto res = check(scenario, 2, spec, "nset", /*max_depth=*/40, /*max_nodes=*/400000,
                   std::vector<sim::Choice>(5, sim::Choice{0, false}));
  ASSERT_TRUE(res.decided) << "search budget exhausted";
  EXPECT_FALSE(res.strongly_linearizable);
}

}  // namespace
}  // namespace c2sl
