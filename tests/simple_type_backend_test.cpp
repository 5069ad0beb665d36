// Backend ablation for Algorithm 1 (Theorem 3's hypothesis): the simple-type
// construction is strongly linearizable when the root snapshot is — the
// atomic snapshot and the §3.2 SnapshotFAA (Theorem 4) both pass the model
// check — and remains plain-linearizable over the non-SL AADGMS snapshot
// (the Aspnes–Herlihy correctness argument never needed strong
// linearizability; only the hyperproperty-preservation claim does).
#include <gtest/gtest.h>

#include "baselines/aadgms_snapshot.h"
#include "core/simple_type.h"
#include "harness.h"
#include "primitives/atomic_objects.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

using verify::Invocation;

verify::CounterSpec g_counter_spec;

core::OverwritesFn counter_overwrites() {
  return [](const Invocation& o1, const Invocation&) { return o1.name == "Read"; };
}

/// Counter over an externally chosen snapshot backend.
struct CounterOver : core::ConcurrentObject {
  std::unique_ptr<core::SnapshotIface> backend;
  std::unique_ptr<core::SimpleTypeObject> ctr;

  /// Adapter: the hypothetical atomic snapshot base object.
  struct AtomicSnapshotAdapter : core::SnapshotIface {
    sim::Handle<prim::SnapshotObj> h;
    AtomicSnapshotAdapter(sim::World& w, int n) { h = w.add<prim::SnapshotObj>("root", n); }
    void update(sim::Ctx& ctx, int64_t v) override { ctx.world->get(h).update(ctx, v); }
    std::vector<int64_t> scan(sim::Ctx& ctx) override { return ctx.world->get(h).scan(ctx); }
  };

  enum class Backend { kAtomic, kAadgms };

  CounterOver(sim::World& w, int n, Backend which) {
    switch (which) {
      case Backend::kAtomic:
        backend = std::make_unique<AtomicSnapshotAdapter>(w, n);
        break;
      case Backend::kAadgms:
        backend = std::make_unique<baselines::AadgmsSnapshot>(w, "root", n);
        break;
    }
    ctr = std::make_unique<core::SimpleTypeObject>(w, "ctr", n, g_counter_spec,
                                                   counter_overwrites(), *backend);
  }
  std::string object_name() const override { return "ctr"; }
  Val apply(sim::Ctx& c, const Invocation& i) override { return ctr->apply(c, i); }
};

TEST(SimpleTypeBackend, SequentialSemanticsIdenticalAcrossBackends) {
  for (auto which : {CounterOver::Backend::kAtomic, CounterOver::Backend::kAadgms}) {
    sim::World world;
    CounterOver obj(world, 2, which);
    sim::Ctx solo;
    solo.world = &world;
    solo.self = 0;
    obj.apply(solo, {"Inc", unit(), 0});
    obj.apply(solo, {"Inc", unit(), 0});
    EXPECT_EQ(obj.apply(solo, {"Read", unit(), 0}), num(2));
  }
}

TEST(SimpleTypeBackend, LinearizableOverBothBackends) {
  testing::OpGen gen = [](int, int, Rng& rng) {
    return rng.next_bool(0.6) ? Invocation{"Inc", unit(), -1}
                              : Invocation{"Read", unit(), -1};
  };
  for (auto which : {CounterOver::Backend::kAtomic, CounterOver::Backend::kAadgms}) {
    testing::ObjectFactory factory = [which](sim::World& w, int n) {
      return std::make_shared<CounterOver>(w, n, which);
    };
    testing::WorkloadOptions opts;
    opts.n = 3;
    opts.ops_per_proc = 3;
    EXPECT_TRUE(testing::lin_sweep(factory, gen, g_counter_spec, opts, 30, "ctr"))
        << static_cast<int>(which);
  }
}

// Theorem 3's positive side over the ATOMIC snapshot: full bounded SL check.
TEST(SimpleTypeBackend, StronglyLinearizableOverAtomicSnapshot) {
  testing::ObjectFactory factory = [](sim::World& w, int n) {
    return std::make_shared<CounterOver>(w, n, CounterOver::Backend::kAtomic);
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Inc", unit(), 0}}, {{"Read", unit(), 1}}});
  sim::ExploreOptions opts;
  opts.max_depth = 24;
  opts.max_nodes = 300000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted);
  verify::StrongLinOptions slopts;
  slopts.object = "ctr";
  auto res = verify::check_strong_linearizability(tree, g_counter_spec, slopts);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Over the NON-strongly-linearizable AADGMS backend, probe small guided
// subtrees for prefix-closure conflicts in the composed object. A conflict
// would be a definitive refutation (sound); absence at this size is recorded,
// not asserted — AADGMS operations are long, so the conflict region may sit
// beyond tractable depth for the composed object.
TEST(SimpleTypeBackend, AadgmsBackendProbedForConflicts) {
  testing::ObjectFactory factory = [](sim::World& w, int n) {
    return std::make_shared<CounterOver>(w, n, CounterOver::Backend::kAadgms);
  };
  auto scenario = testing::fixed_scenario(
      factory, {{{"Inc", unit(), 0}}, {{"Inc", unit(), 1}}, {{"Read", unit(), 2}}});
  int conflicts = 0;
  int probes = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    sim::SimRun probe(3);
    scenario(probe);
    sim::RandomStrategy random(seed);
    sim::RecordingStrategy recorder(random);
    probe.sched.run(recorder, 10);
    if (recorder.recorded().size() < 10) continue;
    sim::ExploreOptions opts;
    opts.prefix = recorder.recorded();
    opts.max_depth = 8;
    opts.max_nodes = 30000;
    sim::ExecGraph tree = sim::explore(3, scenario, opts);
    verify::StrongLinOptions slopts;
    slopts.object = "ctr";
    slopts.max_search_nodes = 2'000'000;
    auto res = verify::check_strong_linearizability(tree, g_counter_spec, slopts);
    if (!res.decided) continue;
    ++probes;
    if (!res.strongly_linearizable) ++conflicts;
  }
  EXPECT_GT(probes, 0);
  RecordProperty("conflicts_found", conflicts);
  RecordProperty("probes", probes);
  // Either outcome is consistent with theory at this scale; the linearizable
  // sweeps above plus the refutation of the BARE AADGMS snapshot
  // (strong_lin_negative_test.cpp) carry the §3.3 hypothesis story.
}

}  // namespace
}  // namespace c2sl
