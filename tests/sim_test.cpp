// Tests for the simulation substrate: fibers, scheduler gating, determinism,
// replay, crash injection, history recording, and the execution-tree explorer.
// The verification results in the rest of the suite are only as trustworthy as
// the properties established here.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "primitives/faa.h"
#include "primitives/register.h"
#include "primitives/tas.h"
#include "runtime/counter_sum_digest.h"
#include "runtime/keyed_version_digest.h"
#include "runtime/native_max_register.h"
#include "runtime/native_snapshot.h"
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
  // graph has 1 root + 2 + 2 nodes (each leaf reached after both steps). The
  // two orders find different values, so their leaves do not merge.
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto reg = run.world.add<prim::FetchAddInt>("ctr");
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [reg](sim::Ctx& ctx) { ctx.world->get(reg).fetch_add(ctx, 1); });
    }
  };
  sim::ExploreOptions opts;
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  EXPECT_EQ(tree.size(), 5u);
  int leaves = 0;
  for (const auto& node : tree.nodes) {
    if (node.edges.empty()) {
      ++leaves;
      EXPECT_TRUE(node.all_done);
    }
  }
  EXPECT_EQ(leaves, 2);
}

// Executions that reach one configuration share a node. Two processes that
// each load k distinct words reach (i, j) loads done in C(i+j, i) orders, all
// finding the same values: (k+1)^2 configurations, while the path walk still
// yields one history per execution, the tree's node count.
TEST(Explorer, MergesEqualConfigurationsAndWalksEveryPath) {
  constexpr int k = 3;
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto words = std::make_shared<std::array<sim::SimWord<int64_t>, 2 * k>>();
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [words, p](sim::Ctx&) {
        for (int w = 0; w < k; ++w) (*words)[static_cast<size_t>(p * k + w)].load();
      });
    }
  };
  sim::ExecGraph graph = sim::explore(2, scenario, sim::ExploreOptions{});
  EXPECT_EQ(graph.size(), size_t{(k + 1) * (k + 1)});
  size_t tree_nodes = 0;  // sum of C(i+j, i) over 0 <= i, j <= k
  for (int i = 0; i <= k; ++i) {
    size_t c = 1;  // C(i+j, i), stepping j
    for (int j = 0; j <= k; ++j) {
      tree_nodes += c;
      c = c * static_cast<size_t>(i + j + 1) / static_cast<size_t>(j + 1);
    }
  }
  size_t walked = 0;
  graph.for_each_path([&](const sim::ExecNode&, const std::vector<sim::Event>&) { ++walked; });
  EXPECT_EQ(walked, tree_nodes);
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
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  // Root history: both invocations (spawn runs prologues).
  auto root_events = tree.history_at(0);
  EXPECT_EQ(root_events.size(), 2u);
  // A leaf history contains 2 invocations + 2 responses.
  for (const auto& node : tree.nodes) {
    if (node.edges.empty()) {
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
  sim::ExecGraph tree = sim::explore(2, scenario, opts);
  bool has_crash_edge = false;
  for (const auto& node : tree.nodes) {
    for (const auto& edge : node.edges) has_crash_edge |= edge.choice.crash;
  }
  EXPECT_TRUE(has_crash_edge);
  EXPECT_GT(tree.size(), 5u);
}

// SimMem (sim/sim_mem.h) is the memory policy the checker runs the runtime's
// constructions over. Every node count of a tree over such a construction
// rests on the two properties pinned here: each word op is exactly one
// scheduled step, and an access outside a scheduled fiber takes none.
// Constructing a word takes no step either, even inside a running fiber: the
// publication trees (tests/service_sim_test.cpp) model a fresh segment's
// uninitialised memory as cells constructed at a garbage value, and count
// only the winner's init stores and the pointer word's load and store.
TEST(SimMem, EachWordOpIsExactlyOneStep) {
  struct Mem {
    sim::SimWord<int64_t> word{5};
    sim::SimArray<sim::SimWord<uint8_t>> cells;
    sim::SimWord<int64_t*> ptr{nullptr};
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
    // A word built here, mid-run, takes no step until it is accessed.
    uint64_t before = ctx.steps_taken;
    auto fresh = std::make_unique<sim::SimWord<uint8_t>[]>(4);
    sim::SimWord<uint8_t> garbage{1};
    EXPECT_EQ(ctx.steps_taken, before);
    one([&] { EXPECT_EQ(garbage.load(), 1); });
    one([&] { fresh[3].store(0); });
    // A pointer word: one step per load and per store.
    int64_t target = 0;
    one([&] { EXPECT_EQ(mem->ptr.load(), nullptr); });
    one([&] { mem->ptr.store(&target); });
    one([&] { EXPECT_EQ(mem->ptr.load(), &target); });
  });
  sim::RoundRobinStrategy rr;
  auto res = run.sched.run(rr, 100);
  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(steps, std::vector<uint64_t>(12, 1));
  EXPECT_EQ(res.steps, 12u);
}

// The runtime's reads of a fetch&add word are one load, a raising max write
// is one fetch&add however far it raises its binary lane, and a max write
// that changes nothing takes no step (docs/PROOFS.md, "The native
// refinements"). Every tree over these classes counts exactly these steps.
TEST(SimMem, NativeReadsAreOneLoadAndANoOpMaxWriteTakesNoStep) {
  struct Objects {
    rt::BasicMaxRegister64<sim::SimMem> max{2, rt::lane_max(2)};
    rt::BasicSnapshot64<sim::SimMem> snap{2};
    rt::BasicCounterSumDigest<sim::SimMem> sum;
    rt::BasicKeyedVersionDigest<sim::SimMem> journal;
  };
  auto obj = std::make_shared<Objects>();
  sim::SimRun run(1);
  run.history.record_steps = true;
  std::vector<std::vector<std::string>> steps;  // step names, per call
  run.sched.spawn(0, [obj, &run, &steps](sim::Ctx&) {
    auto one = [&](auto&& op) {
      size_t before = run.history.events().size();
      op();
      std::vector<std::string> names;
      for (size_t i = before; i < run.history.events().size(); ++i) {
        names.push_back(run.history.events()[i].name);
      }
      steps.push_back(names);
    };
    one([&] { obj->max.write_max(0, 5); });  // raises the lane
    one([&] { obj->max.write_max(0, 5); });  // no-op: equal
    one([&] { obj->max.write_max(0, 3); });  // no-op: below
    one([&] { obj->max.write_max(1, 0); });  // no-op: the initial 0
    one([&] { EXPECT_EQ(obj->max.read_max(), 5); });
    // A raise that fills all 32 bits of the lane: still one fetch&add.
    one([&] { obj->max.write_max(1, rt::lane_max(2)); });
    one([&] { EXPECT_EQ(obj->max.read_max(), rt::lane_max(2)); });
    one([&] { EXPECT_EQ(obj->snap.scan(), (std::vector<int64_t>{0, 0})); });
    one([&] { EXPECT_EQ(obj->sum.read(), 0); });
    one([&] { EXPECT_EQ(obj->journal.version(), 0); });
  });
  sim::RoundRobinStrategy rr;
  auto res = run.sched.run(rr, 100);
  EXPECT_TRUE(res.all_done);
  using Names = std::vector<std::string>;
  EXPECT_EQ(steps, (std::vector<Names>{{"fetch&add"}, {}, {}, {}, {"load"},
                                        {"fetch&add"}, {"load"}, {"load"},
                                        {"load"}, {"load"}}));
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

// A wait has futex semantics (sim/sim_mem.h): while the word still equals
// `old` the waiter is not runnable, so a parked waiter adds no branch to a
// tree; once the word changes, the wait is exactly one step. notify_one()
// takes none.
TEST(SimMem, WaitIsOneStepOfferedOnlyOnceTheWordChanges) {
  auto word = std::make_shared<sim::SimWord<int64_t>>(0);
  sim::SimRun run(2);
  uint64_t wait_steps = 0;
  run.sched.spawn(0, [word, &wait_steps](sim::Ctx& ctx) {
    uint64_t before = ctx.steps_taken;
    word->wait(0);
    wait_steps = ctx.steps_taken - before;
  });
  run.sched.spawn(1, [word](sim::Ctx& ctx) {
    word->store(1);
    word->notify_one();
    EXPECT_EQ(ctx.steps_taken, 1u);
  });
  EXPECT_EQ(run.sched.runnable(), std::vector<sim::ProcId>{1});
  run.sched.step(1);
  EXPECT_EQ(run.sched.runnable(), std::vector<sim::ProcId>{0});
  run.sched.step(0);
  EXPECT_TRUE(run.sched.all_done());
  EXPECT_EQ(wait_steps, 1u);
}

// A run in which every process is blocked ends: no process can move, and
// the blocked ops stay pending in the history.
TEST(SimMem, ARunWithEveryProcessBlockedEndsWithTheirOpsPending) {
  auto word = std::make_shared<sim::SimWord<int64_t>>(0);
  sim::SimRun run(2);
  for (int p = 0; p < 2; ++p) {
    run.sched.spawn(p, [word](sim::Ctx& ctx) {
      sim::record_op(ctx, "w", "Wait", unit(), [&] {
        word->wait(0);
        return unit();
      });
    });
  }
  sim::RoundRobinStrategy rr;
  auto res = run.sched.run(rr, 100);
  EXPECT_TRUE(res.all_done);
  EXPECT_EQ(res.steps, 0u);
  std::vector<sim::OpRecord> ops = run.history.operations();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(ops[0].complete);
  EXPECT_FALSE(ops[1].complete);
}

// Outside a scheduled fiber no one could change the word: a wait on an
// unchanged word is a checked error instead of a hang, and a wait on a
// changed one returns at once.
TEST(SimMem, SoloWaitOnAnUnchangedWordIsACheckedError) {
  sim::SimWord<int64_t> word{4};
  EXPECT_THROW(word.wait(4), PreconditionError);
  word.wait(3);
}

}  // namespace
}  // namespace c2sl
