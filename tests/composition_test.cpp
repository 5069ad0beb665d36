// Composition: linearizability is compositional (Herlihy–Wing), and the paper
// relies on strong linearizability composing too ([9, Thm 10], used for
// Theorem 4 and Corollary 7). These tests drive MULTIPLE objects in one
// execution and check each against its own spec — plus a DOT-export smoke
// test for the tooling.
#include <gtest/gtest.h>

#include "core/max_register_faa.h"
#include "core/readable_tas.h"
#include "core/snapshot_faa.h"
#include "harness.h"
#include "sim/dot.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

using verify::Invocation;

TEST(Composition, ThreeObjectsOneExecution) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    sim::SimRun run(3);
    auto maxreg = std::make_shared<core::MaxRegisterFAA>(run.world, "maxreg", 3);
    auto snap = std::make_shared<core::SnapshotFAA>(run.world, "snap", 3);
    auto tas = std::make_shared<core::ReadableTAS>(run.world, "rtas");
    for (int p = 0; p < 3; ++p) {
      run.sched.spawn(p, [maxreg, snap, tas, p, seed](sim::Ctx& ctx) {
        Rng rng(seed * 71 + static_cast<uint64_t>(p));
        for (int j = 0; j < 4; ++j) {
          switch (rng.next_below(5)) {
            case 0:
              core::invoke_recorded(ctx, *maxreg,
                                    {"WriteMax", num(rng.next_in(0, 9)), p});
              break;
            case 1:
              core::invoke_recorded(ctx, *maxreg, {"ReadMax", unit(), p});
              break;
            case 2:
              core::invoke_recorded(ctx, *snap, {"Update", num(rng.next_in(0, 9)), p});
              break;
            case 3:
              core::invoke_recorded(ctx, *snap, {"Scan", unit(), p});
              break;
            default:
              core::invoke_recorded(ctx, *tas, {"TAS", unit(), p});
              break;
          }
        }
      });
    }
    sim::RandomStrategy strategy(seed);
    auto rr = run.sched.run(strategy, 100000);
    ASSERT_TRUE(rr.all_done);

    auto ops = run.history.operations();
    verify::MaxRegisterSpec maxreg_spec;
    verify::SnapshotSpec snap_spec(3);
    verify::TasSpec tas_spec;
    EXPECT_TRUE(
        verify::check_object_linearizability(ops, "maxreg", maxreg_spec).linearizable)
        << "seed " << seed;
    EXPECT_TRUE(verify::check_object_linearizability(ops, "snap", snap_spec).linearizable)
        << "seed " << seed;
    EXPECT_TRUE(verify::check_object_linearizability(ops, "rtas", tas_spec).linearizable)
        << "seed " << seed;
  }
}

// Exhaustive complement to the random sweeps: EVERY schedule of a small
// two-object scenario yields linearizable per-object histories at every leaf.
TEST(Composition, ExhaustiveSmallConfigAllLeavesLinearizable) {
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto maxreg = std::make_shared<core::MaxRegisterFAA>(run.world, "maxreg", 2);
    auto tas = std::make_shared<core::ReadableTAS>(run.world, "rtas");
    run.sched.spawn(0, [maxreg, tas](sim::Ctx& ctx) {
      core::invoke_recorded(ctx, *maxreg, {"WriteMax", num(3), 0});
      core::invoke_recorded(ctx, *tas, {"TAS", unit(), 0});
    });
    run.sched.spawn(1, [maxreg, tas](sim::Ctx& ctx) {
      core::invoke_recorded(ctx, *tas, {"TAS", unit(), 1});
      core::invoke_recorded(ctx, *maxreg, {"ReadMax", unit(), 1});
    });
  };
  sim::ExploreOptions opts;
  opts.max_depth = 16;
  opts.max_nodes = 50000;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  EXPECT_FALSE(tree.budget_exhausted);

  verify::MaxRegisterSpec maxreg_spec;
  verify::TasSpec tas_spec;
  int leaves = 0;
  tree.for_each_path([&](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    if (!node.edges.empty() || !node.all_done) return;
    ++leaves;
    auto ops = verify::operations_from_events(history);
    EXPECT_TRUE(
        verify::check_object_linearizability(ops, "maxreg", maxreg_spec).linearizable)
        << "leaf " << node.id;
    EXPECT_TRUE(verify::check_object_linearizability(ops, "rtas", tas_spec).linearizable)
        << "leaf " << node.id;
  });
  EXPECT_GT(leaves, 1);
}

TEST(Composition, DotExportRendersTree) {
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto tas = std::make_shared<core::ReadableTAS>(run.world, "rtas");
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [tas, p](sim::Ctx& ctx) {
        core::invoke_recorded(ctx, *tas, {"TAS", unit(), p});
      });
    }
  };
  sim::ExploreOptions opts;
  opts.max_depth = 8;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  sim::DotOptions dot_opts;
  dot_opts.highlight_node = 1;
  std::string dot = sim::to_dot(tree, dot_opts);
  EXPECT_NE(dot.find("digraph exec_graph"), std::string::npos);
  EXPECT_NE(dot.find("salmon"), std::string::npos);   // highlighted node
  EXPECT_NE(dot.find("palegreen"), std::string::npos);  // completed leaves
  EXPECT_NE(dot.find("->"), std::string::npos);
  // One label per configuration, at least.
  size_t count = 0;
  for (size_t pos = dot.find("[label="); pos != std::string::npos;
       pos = dot.find("[label=", pos + 1)) {
    ++count;
  }
  EXPECT_GE(count, tree.size());
}

}  // namespace
}  // namespace c2sl
