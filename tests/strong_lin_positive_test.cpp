// Bounded model checks of STRONG linearizability for the paper's positive
// results: Theorems 1 (max register), 2 (snapshot), 5 (readable test&set),
// 6 (multi-shot test&set), 9 (fetch&increment) and 10 (set), plus the
// CAS-based comparison structures and the bounded register-based max register.
//
// Each check explores the FULL execution tree of a small scenario and asks the
// checker for a prefix-closed linearization function. A positive verdict here
// is exact for the explored tree; the negative-side soundness (used in
// strong_lin_negative_test.cpp) makes the pair of files a meaningful
// experiment, not a tautology.
#include <gtest/gtest.h>

#include "baselines/cas_structures.h"
#include "core/fetch_increment.h"
#include "core/max_register_faa.h"
#include "core/max_register_variants.h"
#include "core/multishot_tas.h"
#include "core/readable_tas.h"
#include "core/simple_type.h"
#include "core/sl_set.h"
#include "core/snapshot_faa.h"
#include "harness.h"
#include "runtime/native_tas_family.h"
#include "sim/sim_mem.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

using verify::Invocation;

verify::StrongLinResult check(const sim::ScenarioFn& scenario, int n,
                              const verify::Spec& spec, const std::string& object,
                              int max_depth = 24, size_t max_nodes = 120000,
                              std::vector<sim::Choice> prefix = {}) {
  sim::ExploreOptions opts;
  opts.max_depth = max_depth;
  opts.max_nodes = max_nodes;
  opts.prefix = std::move(prefix);
  sim::ExecTree tree = sim::explore(n, scenario, opts);
  EXPECT_FALSE(tree.budget_exhausted) << "tree budget too small: " << tree.size();
  verify::StrongLinOptions slopts;
  slopts.object = object;
  return verify::check_strong_linearizability(tree, spec, slopts);
}

TEST(StrongLin, Theorem1_MaxRegisterFAA) {
  auto factory = [](sim::World& w, int n) {
    return std::make_shared<core::MaxRegisterFAA>(w, "maxreg", n);
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"WriteMax", num(2), 0}, {"ReadMax", unit(), 0}},
                {{"WriteMax", num(5), 1}},
                {{"ReadMax", unit(), 2}, {"WriteMax", num(1), 2}}});
  verify::MaxRegisterSpec spec;
  auto res = check(scenario, 3, spec, "maxreg");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(StrongLin, Theorem2_SnapshotFAA) {
  auto factory = [](sim::World& w, int n) {
    return std::make_shared<core::SnapshotFAA>(w, "snap", n);
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Update", num(1), 0}, {"Scan", unit(), 0}},
                {{"Update", num(2), 1}, {"Update", num(3), 1}},
                {{"Scan", unit(), 2}}});
  verify::SnapshotSpec spec(3);
  auto res = check(scenario, 3, spec, "snap");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(StrongLin, Theorem5_ReadableTAS) {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<core::ReadableTAS>(w, "rtas");
  };
  auto scenario = testing::fixed_scenario(factory, {{{"TAS", unit(), 0}},
                                                    {{"TAS", unit(), 1}},
                                                    {{"Read", unit(), 2},
                                                     {"Read", unit(), 2}}});
  verify::TasSpec spec;
  auto res = check(scenario, 3, spec, "rtas");
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Theorem 6 with atomic base objects (max register + readable TAS array), the
// paper's literal statement.
TEST(StrongLin, Theorem6_MultishotTAS_AtomicBases) {
  struct Bundle : core::ConcurrentObject {
    core::AtomicMaxRegister curr;
    core::AtomicReadableTasArray ts;
    core::MultishotTAS mtas;
    Bundle(sim::World& w)
        : curr(w, "curr"), ts(w, "TS"), mtas("mtas", curr, ts) {}
    std::string object_name() const override { return "mtas"; }
    Val apply(sim::Ctx& c, const Invocation& i) override { return mtas.apply(c, i); }
  };
  auto factory = [](sim::World& w, int) { return std::make_shared<Bundle>(w); };
  auto scenario = testing::fixed_scenario(factory, {{{"TAS", unit(), 0}},
                                                    {{"Reset", unit(), 1}},
                                                    {{"TAS", unit(), 2}}});
  verify::TasSpec spec(/*multi_shot=*/true);
  auto res = check(scenario, 3, spec, "mtas", /*max_depth=*/24, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Corollary 7 composition: multi-shot TAS over MaxRegisterFAA + ReadableTasArray
// (test&set + fetch&add only). Two processes to keep the tree tractable —
// every operation is 3+ base steps here.
TEST(StrongLin, Corollary7_MultishotTAS_Implemented) {
  struct Bundle : core::ConcurrentObject {
    core::MaxRegisterFAA curr;
    core::ReadableTasArray ts;
    core::MultishotTAS mtas;
    Bundle(sim::World& w, int n)
        : curr(w, "curr", n), ts(w, "TS"), mtas("mtas", curr, ts) {}
    std::string object_name() const override { return "mtas"; }
    Val apply(sim::Ctx& c, const Invocation& i) override { return mtas.apply(c, i); }
  };
  auto factory = [](sim::World& w, int n) { return std::make_shared<Bundle>(w, n); };
  auto scenario = testing::fixed_scenario(
      factory, {{{"TAS", unit(), 0}, {"Reset", unit(), 0}}, {{"TAS", unit(), 1}}});
  verify::TasSpec spec(/*multi_shot=*/true);
  auto res = check(scenario, 2, spec, "mtas", /*max_depth=*/26, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(StrongLin, Theorem9_FetchIncrement) {
  struct Bundle : core::ConcurrentObject {
    core::ReadableTasArray ts;
    core::FetchIncrement fai;
    Bundle(sim::World& w) : ts(w, "M"), fai("fai", ts) {}
    std::string object_name() const override { return "fai"; }
    Val apply(sim::Ctx& c, const Invocation& i) override { return fai.apply(c, i); }
  };
  auto factory = [](sim::World& w, int) { return std::make_shared<Bundle>(w); };
  auto scenario = testing::fixed_scenario(
      factory, {{{"FAI", unit(), 0}}, {{"FAI", unit(), 1}}, {{"Read", unit(), 2}}});
  verify::FaiSpec spec;
  auto res = check(scenario, 3, spec, "fai", /*max_depth=*/24, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(StrongLin, Theorem10_Set) {
  struct Bundle : core::ConcurrentObject {
    core::AtomicReadableTasArray ts;
    core::FetchIncrement fai;
    core::SLSet set;
    Bundle(sim::World& w) : ts(w, "M"), fai("fai", ts), set(w, "set", fai) {}
    std::string object_name() const override { return "set"; }
    Val apply(sim::Ctx& c, const Invocation& i) override { return set.apply(c, i); }
  };
  auto factory = [](sim::World& w, int) { return std::make_shared<Bundle>(w); };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Put", num(7), 0}}, {{"Take", unit(), 1}}});
  verify::SetSpec spec;
  auto res = check(scenario, 2, spec, "set", /*max_depth=*/30, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// The serving code's own Thm 9 and Thm 10 (runtime/native_tas_family.h),
// instantiated over the checker's memory policy (sim/sim_mem.h): every access
// the native fetch&increment and set make is one explored step, so the two
// native-only refinements — the certified frontier and the taken-prefix hint
// (docs/PROOFS.md) — are checked as the store runs them.

// The FAI/FAI/Read scenario of Theorem9_FetchIncrement. Its full tree is past
// 3,000,000 nodes (each op takes 3-8 steps here), so the check explores two
// guided subtrees, each within the node budget:
//   * P0 has won cell 0 and not yet stored frontier 1 — the window in which
//     the frontier is stale. P1 and the reader load frontier 0, probe cell 0
//     as set and gallop to cell 1, and P0's late store can move the frontier
//     back below P1's.
//   * P1 and then P0 have found cell 0 unset (frontier load, probe, the
//     loop's load) and stand before their exchanges: the exchange race, the
//     loser's rescan, and the reader's confirming read racing both wins.
TEST(StrongLin, NativeFetchIncrementOverSimMem) {
  auto factory = [](sim::World&, int) {
    return std::make_shared<
        testing::MemFaiObject<rt::BasicFetchIncrement<sim::SimMem>>>("nfai");
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"FAI", unit(), 0}}, {{"FAI", unit(), 1}}, {{"Read", unit(), 2}}});
  const sim::Choice p0{0, false};
  const sim::Choice p1{1, false};
  const std::vector<std::vector<sim::Choice>> prefixes = {
      {p0, p0, p0, p0}, {p1, p1, p1, p0, p0, p0}};
  verify::FaiSpec spec;
  for (const auto& prefix : prefixes) {
    auto res = check(scenario, 3, spec, "nfai", /*max_depth=*/32,
                     /*max_nodes=*/400000, prefix);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.strongly_linearizable)
        << "prefix of " << prefix.size() << " steps:\n" << res.report;
  }
}

// P0 puts while P1 takes twice. P1's first take publishes its verified-taken
// prefix: 1 once it won item 7 at cell 0, 0 while the put still sits between
// its Max increment and its item store. P1's second take starts its sweep
// from that hint.
TEST(StrongLin, NativeSetOverSimMem) {
  auto factory = [](sim::World&, int) {
    return std::make_shared<testing::MemSetObject<rt::BasicSet<sim::SimMem>>>(
        "nset");
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Put", num(7), 0}}, {{"Take", unit(), 1}, {"Take", unit(), 1}}});
  verify::SetSpec spec;
  auto res = check(scenario, 2, spec, "nset", /*max_depth=*/40, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// NOTE: the plain AAC tree max register (BoundedRWMaxRegister) FAILS this
// check — see strong_lin_negative_test.cpp, where that finding is recorded.

TEST(StrongLin, CasQueue) {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<baselines::CasQueue>(w, "queue");
  };
  auto scenario = testing::fixed_scenario(factory, {{{"Enq", num(1), 0}},
                                                    {{"Enq", num(2), 1}},
                                                    {{"Deq", unit(), 2}}});
  verify::QueueSpec spec;
  auto res = check(scenario, 3, spec, "queue", /*max_depth=*/24, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

TEST(StrongLin, CasStack) {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<baselines::CasStack>(w, "stack");
  };
  auto scenario = testing::fixed_scenario(factory, {{{"Push", num(1), 0}},
                                                    {{"Push", num(2), 1}},
                                                    {{"Pop", unit(), 2}}});
  verify::StackSpec spec;
  auto res = check(scenario, 3, spec, "stack", /*max_depth=*/24, /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Theorems 3/4: simple type (counter) over the strongly-linearizable snapshot.
TEST(StrongLin, Theorem4_SimpleTypeCounter) {
  static verify::CounterSpec counter_spec;
  auto factory = [](sim::World& w, int n) {
    return std::shared_ptr<core::ConcurrentObject>(
        core::make_counter(w, "ctr", n, counter_spec));
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Inc", unit(), 0}}, {{"Read", unit(), 1}}});
  auto res = check(scenario, 2, counter_spec, "ctr", /*max_depth=*/24,
                   /*max_nodes=*/400000);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

}  // namespace
}  // namespace c2sl
