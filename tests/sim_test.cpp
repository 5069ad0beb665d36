// Tests for the simulation substrate: fibers, scheduler gating, determinism,
// replay, crash injection, history recording, and the execution-tree explorer.
// The verification results in the rest of the suite are only as trustworthy as
// the properties established here.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "primitives/faa.h"
#include "primitives/register.h"
#include "primitives/tas.h"
#include "sim/explorer.h"
#include "sim/fiber.h"
#include "sim/sim_mem.h"
#include "sim/sim_run.h"
#include "sim/strategy.h"

namespace c2sl {
namespace {

using sim::Choice;

TEST(Fiber, RunsBodyAcrossYields) {
  std::vector<int> trace;
  sim::Fiber* self = nullptr;
  sim::Fiber f([&] {
    trace.push_back(1);
    self->yield();
    trace.push_back(2);
    self->yield();
    trace.push_back(3);
  });
  self = &f;
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1}));
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));
  f.resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, PropagatesExceptions) {
  sim::Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Scheduler, OneStepPerResume) {
  sim::SimRun run(2);
  auto reg = run.world.add<prim::FetchAddInt>("ctr");
  std::vector<int64_t> seen;
  for (int p = 0; p < 2; ++p) {
    run.sched.spawn(p, [reg, &seen](sim::Ctx& ctx) {
      for (int j = 0; j < 3; ++j) seen.push_back(ctx.world->get(reg).fetch_add(ctx, 1));
    });
  }
  // Processes are parked at their first gate; the counter is untouched.
  EXPECT_EQ(run.world.get(reg).peek(), 0);
  EXPECT_EQ(run.sched.runnable(), (std::vector<sim::ProcId>{0, 1}));

  run.sched.step(0);  // p0 performs one fetch&add
  EXPECT_EQ(run.world.get(reg).peek(), 1);
  run.sched.step(1);
  EXPECT_EQ(run.world.get(reg).peek(), 2);

  sim::RoundRobinStrategy rr;
  run.sched.run(rr, 1000);
  EXPECT_TRUE(run.sched.all_done());
  EXPECT_EQ(run.world.get(reg).peek(), 6);
  // Every increment observed a distinct previous value.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Scheduler, DeterministicReplay) {
  auto run_once = [](uint64_t seed) {
    sim::SimRun run(3);
    auto reg = run.world.add<prim::FetchAddInt>("ctr");
    for (int p = 0; p < 3; ++p) {
      run.sched.spawn(p, [reg](sim::Ctx& ctx) {
        for (int j = 0; j < 4; ++j) ctx.world->get(reg).fetch_add(ctx, 1 << (2 * ctx.self));
      });
    }
    run.history.record_steps = true;
    sim::RandomStrategy strategy(seed);
    run.sched.run(strategy, 1000);
    return run.history.to_string();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(Scheduler, CrashStopsProcessAndUnwinds) {
  sim::SimRun run(2);
  auto reg = run.world.add<prim::FetchAddInt>("ctr");
  bool p0_second_step_landed = false;
  run.sched.spawn(0, [reg, &p0_second_step_landed](sim::Ctx& ctx) {
    ctx.world->get(reg).fetch_add(ctx, 1);
    // Local code here runs eagerly with the first granted step; only the next
    // SHARED step is blocked by the crash.
    ctx.world->get(reg).fetch_add(ctx, 1);
    p0_second_step_landed = true;  // must never run: crash hits the 2nd gate
  });
  run.sched.spawn(1, [reg](sim::Ctx& ctx) {
    ctx.world->get(reg).fetch_add(ctx, 10);
  });
  run.sched.step(0);  // p0's first fetch&add lands
  run.sched.crash(0);
  EXPECT_EQ(run.sched.runnable(), (std::vector<sim::ProcId>{1}));
  EXPECT_FALSE(p0_second_step_landed);
  run.sched.step(1);
  EXPECT_EQ(run.world.get(reg).peek(), 11);  // 1 from p0, 10 from p1, no 2nd +1
  // The crash is visible in the history.
  bool found_crash = false;
  for (const auto& e : run.history.events()) {
    if (e.kind == sim::Event::Kind::kCrash && e.proc == 0) found_crash = true;
  }
  EXPECT_TRUE(found_crash);
}

TEST(Scheduler, StarveStrategyBlocksVictim) {
  sim::SimRun run(3);
  auto reg = run.world.add<prim::FetchAddInt>("ctr");
  std::vector<uint64_t> steps(3, 0);
  for (int p = 0; p < 3; ++p) {
    run.sched.spawn(p, [reg, &steps](sim::Ctx& ctx) {
      for (int j = 0; j < 5; ++j) ctx.world->get(reg).fetch_add(ctx, 1);
      steps[static_cast<size_t>(ctx.self)] = ctx.steps_taken;
    });
  }
  sim::StarveStrategy starve(/*victim=*/1, /*seed=*/7);
  run.sched.run(starve, 1000);
  // Victim ran only after everyone else finished; all eventually complete.
  EXPECT_TRUE(run.sched.all_done());
  EXPECT_EQ(run.world.get(reg).peek(), 15);
}

TEST(History, RecordsInvocationResponseOrder) {
  sim::SimRun run(2);
  auto reg = run.world.add<prim::RWRegister>("r", num(0));
  run.sched.spawn(0, [reg](sim::Ctx& ctx) {
    sim::record_op(ctx, "r", "write", num(5), [&] {
      ctx.world->get(reg).write(ctx, num(5));
      return unit();
    });
  });
  run.sched.spawn(1, [reg](sim::Ctx& ctx) {
    sim::record_op(ctx, "r", "read", unit(),
                   [&] { return ctx.world->get(reg).read(ctx); });
  });
  sim::RoundRobinStrategy rr;
  run.sched.run(rr, 100);
  auto ops = run.history.operations();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].complete);
  EXPECT_TRUE(ops[1].complete);
  EXPECT_EQ(ops[0].name, "write");
  EXPECT_EQ(ops[1].name, "read");
  EXPECT_LT(ops[0].inv_seq, ops[0].resp_seq);
}

TEST(Primitives, TasSemantics) {
  sim::SimRun run(3);
  auto ts = run.world.add<prim::TestAndSet>("ts", /*readable=*/true);
  std::vector<int64_t> results(3, -1);
  for (int p = 0; p < 3; ++p) {
    run.sched.spawn(p, [&ts, &results](sim::Ctx& ctx) {
      results[static_cast<size_t>(ctx.self)] = ctx.world->get(ts).test_and_set(ctx);
    });
  }
  sim::RandomStrategy strategy(5);
  run.sched.run(strategy, 100);
  // Exactly one winner.
  EXPECT_EQ(std::count(results.begin(), results.end(), 0), 1);
  EXPECT_EQ(std::count(results.begin(), results.end(), 1), 2);
}

TEST(Primitives, NonReadableTasRejectsRead) {
  sim::World world;
  auto ts = world.add<prim::TestAndSet>("ts", /*readable=*/false);
  sim::Ctx solo;
  solo.world = &world;
  EXPECT_THROW(world.get(ts).read(solo), PreconditionError);
}

TEST(Primitives, TwoProcessTasEnforcesParticipants) {
  sim::World world;
  auto ts = world.add<prim::TestAndSet>("ts", false, /*max_participants=*/2);
  sim::Ctx c0, c1, c2;
  c0.world = c1.world = c2.world = &world;
  c0.self = 0;
  c1.self = 1;
  c2.self = 2;
  world.get(ts).test_and_set(c0);
  world.get(ts).test_and_set(c1);
  EXPECT_THROW(world.get(ts).test_and_set(c2), PreconditionError);
}

TEST(World, CloneIsDeepAndIndependent) {
  sim::World world;
  auto reg = world.add<prim::RWRegister>("r", num(1));
  auto faa = world.add<prim::FetchAddBig>("f", BigInt(10));
  auto clone = world.clone();
  sim::Ctx solo;
  solo.world = &world;
  world.get(reg).write(solo, num(2));
  world.get(faa).fetch_add(solo, BigInt(5));
  // The clone still sees the original values.
  EXPECT_EQ(clone->at(reg.idx).state_string(), "n:1");
  EXPECT_EQ(clone->at(faa.idx).state_string(), BigInt(10).to_hex());
  EXPECT_EQ(world.at(faa.idx).state_string(), BigInt(15).to_hex());
}

TEST(World, StateStringInstallRoundTrip) {
  sim::World world;
  auto faa = world.add<prim::FetchAddBig>("f");
  sim::Ctx solo;
  solo.world = &world;
  world.get(faa).fetch_add(solo, BigInt::pow2(100));
  std::string snapshot = world.at(faa.idx).state_string();
  world.get(faa).fetch_add(solo, BigInt(7));
  world.at(faa.idx).set_state_string(snapshot);
  EXPECT_EQ(world.get(faa).peek(), BigInt::pow2(100));
}

TEST(Explorer, EnumeratesAllInterleavings) {
  // Two processes, one fetch&add step each: executions are the 2 orders, the
  // tree has 1 root + 2 + 2 nodes (each leaf reached after both steps).
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto reg = run.world.add<prim::FetchAddInt>("ctr");
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [reg](sim::Ctx& ctx) { ctx.world->get(reg).fetch_add(ctx, 1); });
    }
  };
  sim::ExploreOptions opts;
  sim::ExecTree tree = sim::explore(2, scenario, opts);
  EXPECT_EQ(tree.size(), 5u);
  int leaves = 0;
  for (const auto& node : tree.nodes) {
    if (node.children.empty()) {
      ++leaves;
      EXPECT_TRUE(node.all_done);
    }
  }
  EXPECT_EQ(leaves, 2);
}

TEST(Explorer, HistoryAtConcatenatesSuffixes) {
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto reg = run.world.add<prim::FetchAddInt>("ctr");
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [reg, p](sim::Ctx& ctx) {
        sim::record_op(ctx, "ctr", "inc", unit(), [&] {
          ctx.world->get(reg).fetch_add(ctx, 1);
          return num(p);
        });
      });
    }
  };
  sim::ExploreOptions opts;
  sim::ExecTree tree = sim::explore(2, scenario, opts);
  // Root history: both invocations (spawn runs prologues).
  auto root_events = tree.history_at(0);
  EXPECT_EQ(root_events.size(), 2u);
  // A leaf history contains 2 invocations + 2 responses.
  for (const auto& node : tree.nodes) {
    if (node.children.empty()) {
      auto events = tree.history_at(node.id);
      EXPECT_EQ(events.size(), 4u);
    }
  }
}

TEST(Explorer, CrashBranchesWhenEnabled) {
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto reg = run.world.add<prim::FetchAddInt>("ctr");
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [reg](sim::Ctx& ctx) { ctx.world->get(reg).fetch_add(ctx, 1); });
    }
  };
  sim::ExploreOptions opts;
  opts.include_crashes = true;
  opts.max_crashes = 1;
  sim::ExecTree tree = sim::explore(2, scenario, opts);
  bool has_crash_edge = false;
  for (const auto& node : tree.nodes) {
    if (node.parent != -1 && node.incoming.crash) has_crash_edge = true;
  }
  EXPECT_TRUE(has_crash_edge);
  EXPECT_GT(tree.size(), 5u);
}

// SimMem (sim/sim_mem.h) is the memory policy the checker runs the runtime's
// constructions over. Every node count of a tree over such a construction
// rests on the two properties pinned here: each word op is exactly one
// scheduled step, and an access outside a scheduled fiber takes none.
TEST(SimMem, EachWordOpIsExactlyOneStep) {
  struct Mem {
    sim::SimWord<int64_t> word{5};
    sim::SimArray<sim::SimWord<uint8_t>> cells;
  };
  auto mem = std::make_shared<Mem>();
  sim::SimRun run(1);
  std::vector<uint64_t> steps;
  run.sched.spawn(0, [mem, &steps](sim::Ctx& ctx) {
    auto one = [&](auto&& op) {
      uint64_t before = ctx.steps_taken;
      op();
      steps.push_back(ctx.steps_taken - before);
    };
    one([&] { EXPECT_EQ(mem->word.load(), 5); });
    one([&] { mem->word.store(7); });
    one([&] { EXPECT_EQ(mem->word.fetch_add(2), 7); });
    one([&] { EXPECT_EQ(mem->word.exchange(1), 9); });
    // An array reaches any cell with no step of its own (no spine load).
    one([&] { EXPECT_EQ(mem->cells.cell(1000).exchange(1), 0); });
    one([&] { EXPECT_EQ(mem->cells.peek(1000)->load(), 1); });
    one([&] { EXPECT_EQ(mem->cells.peek(3)->load(), 0); });
  });
  sim::RoundRobinStrategy rr;
  auto res = run.sched.run(rr, 100);
  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(steps, std::vector<uint64_t>(7, 1));
  EXPECT_EQ(res.steps, 7u);
}

TEST(SimMem, AccessOutsideAScheduledFiberTakesNoStep) {
  auto word = std::make_shared<sim::SimWord<int64_t>>();
  sim::SimRun run(1);
  run.history.record_steps = true;
  // A solo fill, as a scenario's setup makes one: no fiber is running.
  EXPECT_EQ(sim::running_ctx(), nullptr);
  word->store(3);
  EXPECT_EQ(word->fetch_add(1), 3);
  run.sched.spawn(0, [word](sim::Ctx&) { word->fetch_add(1); });
  EXPECT_EQ(run.ctx(0).steps_taken, 0u);
  EXPECT_TRUE(run.history.events().empty());
  // The same access inside the fiber is the process's one step.
  run.sched.step(0);
  EXPECT_TRUE(run.sched.all_done());
  EXPECT_EQ(run.ctx(0).steps_taken, 1u);
  ASSERT_EQ(run.history.events().size(), 1u);
  EXPECT_EQ(run.history.events()[0].kind, sim::Event::Kind::kStep);
  EXPECT_EQ(word->load(), 5);  // outside again: still no step
  EXPECT_EQ(run.ctx(0).steps_taken, 1u);
  EXPECT_EQ(sim::running_ctx(), nullptr);
}

}  // namespace
}  // namespace c2sl
