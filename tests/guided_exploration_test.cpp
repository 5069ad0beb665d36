// Guided exploration (ExploreOptions::prefix) and RecordingStrategy — the
// machinery behind the AADGMS refutation. Verifies that subtree exploration
// after a recorded prefix is consistent with full-tree exploration, and that
// prefix-rooted trees carry complete histories.
#include <gtest/gtest.h>

#include "core/readable_tas.h"
#include "harness.h"
#include "sim/explorer.h"
#include "sim/strategy.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

namespace c2sl {
namespace {

using verify::Invocation;

sim::ScenarioFn tas_scenario() {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<core::ReadableTAS>(w, "rtas");
  };
  return testing::fixed_scenario(factory, {{{"TAS", unit(), 0}},
                                           {{"TAS", unit(), 1}},
                                           {{"Read", unit(), 2}}});
}

TEST(GuidedExploration, RecordingStrategyCapturesChoices) {
  sim::SimRun run(3);
  tas_scenario()(run);
  sim::RandomStrategy random(17);
  sim::RecordingStrategy recorder(random);
  run.sched.run(recorder, 3);
  ASSERT_EQ(recorder.recorded().size(), 3u);
  // Replaying the recorded choices reproduces the identical history.
  sim::SimRun replay_run(3);
  tas_scenario()(replay_run);
  sim::ReplayStrategy replay(recorder.recorded());
  replay_run.sched.run(replay, 3);
  EXPECT_EQ(replay_run.history.to_string(), run.history.to_string());
}

TEST(GuidedExploration, PrefixRootCarriesPrefixEvents) {
  // Record a 2-step prefix, then explore: the subtree root's history must
  // contain everything that happened during the prefix.
  sim::SimRun probe(3);
  tas_scenario()(probe);
  sim::RandomStrategy random(5);
  sim::RecordingStrategy recorder(random);
  probe.sched.run(recorder, 2);
  size_t prefix_events = probe.history.events().size();

  sim::ExploreOptions opts;
  opts.prefix = recorder.recorded();
  opts.max_depth = 12;
  sim::ExecGraph tree = sim::explore(3, tas_scenario(), opts);
  EXPECT_EQ(tree.prefix.size(), 2u);
  EXPECT_EQ(tree.history_at(0).size(), prefix_events);
  // Leaves reach completion: 3 invocations, 3 responses.
  tree.for_each_path([](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    if (!node.edges.empty() || !node.all_done) return;
    auto ops = verify::operations_from_events(history);
    EXPECT_EQ(ops.size(), 3u);
    for (const auto& op : ops) EXPECT_TRUE(op.complete);
  });
}

TEST(GuidedExploration, SubtreeVerdictConsistentWithFullTree) {
  // The readable TAS is strongly linearizable; every guided subtree must agree
  // (a conflict in a subtree would refute the full tree, Lemma: restriction of
  // a prefix-closed assignment stays prefix-closed).
  verify::TasSpec spec;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    sim::SimRun probe(3);
    tas_scenario()(probe);
    sim::RandomStrategy random(seed);
    sim::RecordingStrategy recorder(random);
    probe.sched.run(recorder, 3);
    if (recorder.recorded().size() < 3) continue;

    sim::ExploreOptions opts;
    opts.prefix = recorder.recorded();
    opts.max_depth = 12;
    sim::ExecGraph tree = sim::explore(3, tas_scenario(), opts);
    verify::StrongLinOptions slopts;
    slopts.object = "rtas";
    auto res = verify::check_strong_linearizability(tree, spec, slopts);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.strongly_linearizable) << "seed " << seed << "\n" << res.report;
  }
}

}  // namespace
}  // namespace c2sl
