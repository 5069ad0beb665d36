// LaneRegistry (service/lane_registry.h) — the consensus-2 lane lifecycle
// behind C2Store::open_session().
//
//  1. Native unit tests: fresh lane order, recycling, exhaustion, release
//     checks.
//  2. Native stress: lanes stay exclusive under real-thread churn.
//  3. The acceptance facet: the registry's free set, rt::BasicSet over
//     sim::SimMem filled with every lane as the constructor fills it, is
//     STRONGLY linearizable against verify::LaneRegistrySpec on every bounded
//     execution, recycling and "none free" paths included. Every operation
//     linearizes at a fixed own-step (winning exchange / Items write /
//     stabilised EMPTY read), so the linearization is prefix-closed — this
//     test checks that claim mechanically.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "harness.h"
#include "runtime/stress.h"
#include "service/lane_registry.h"
#include "sim/sim_mem.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

namespace c2sl {
namespace {

// --- 1. native unit ---------------------------------------------------------

TEST(LaneRegistry, FreshRegistryHandsOutLanesInOrder) {
  svc::LaneRegistry reg(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reg.try_acquire(), i) << "a fresh registry hands out 0..N-1 in order";
  }
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
}

TEST(LaneRegistry, ReleasedLanesAreRecycled) {
  svc::LaneRegistry reg(2);
  int a = reg.try_acquire();
  int b = reg.try_acquire();
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
  reg.release(a);
  EXPECT_EQ(reg.try_acquire(), a) << "freed lane must come back";
  reg.release(b);
  reg.release(a);
  std::set<int> again{reg.try_acquire(), reg.try_acquire()};
  EXPECT_EQ(again, (std::set<int>{0, 1}));
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone)
      << "recycling must not mint lanes";
}

TEST(LaneRegistry, ReleaseValidatesTheLane) {
  svc::LaneRegistry reg(2);
  EXPECT_THROW(reg.release(-1), PreconditionError);
  EXPECT_THROW(reg.release(2), PreconditionError);
}

TEST(LaneRegistry, ExhaustedRegistryReportsNoneUntilARelease) {
  svc::LaneRegistry reg(1);
  EXPECT_EQ(reg.try_acquire(), 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
  reg.release(0);
  EXPECT_EQ(reg.try_acquire(), 0);
}

// --- 1b. blocking acquisition (the HandoffQueue wiring) ----------------------

TEST(LaneRegistry, BlockingAcquireReturnsImmediatelyWhenALaneIsFree) {
  svc::LaneRegistry reg(2);
  EXPECT_EQ(reg.acquire_blocking(), 0);
  EXPECT_EQ(reg.acquire_blocking(), 1);
  EXPECT_EQ(reg.handoff_enqueued(), 0) << "free lanes must not touch the queue";
}

TEST(LaneRegistry, AcquireForTimesOutWhenAllLanesHeld) {
  svc::LaneRegistry reg(1);
  ASSERT_EQ(reg.try_acquire(), 0);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(reg.acquire_for(std::chrono::milliseconds(5)), svc::LaneRegistry::kNone);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(5));
  // The timed-out waiter cancelled its ticket: a release must not lose the
  // lane to the dead slot.
  reg.release(0);
  EXPECT_EQ(reg.try_acquire(), 0);
}

// Blocked acquirers are served strictly in enqueue order: the registry's
// FIFO-fairness claim. Waiters are sequenced deterministically through the
// handoff_enqueued() counter, so the test pins the ORDER, not just liveness.
TEST(LaneRegistry, BlockingAcquireIsFifoFair) {
  svc::LaneRegistry reg(1);
  ASSERT_EQ(reg.try_acquire(), 0);
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int w = 0; w < 3; ++w) {
    // Admit waiter w only after waiter w-1 is enqueued: enqueue order is then
    // exactly 0, 1, 2.
    while (reg.handoff_enqueued() < w) std::this_thread::yield();
    waiters.emplace_back([&reg, &order, w] {
      int lane = reg.acquire_blocking();
      // Safe unsynchronised push: exactly one waiter holds the lane, and the
      // release -> handoff -> acquire chain orders the pushes.
      order.push_back(w);
      reg.release(lane);
    });
  }
  while (reg.handoff_enqueued() < 3) std::this_thread::yield();
  reg.release(0);  // feed the chain: 0 -> 1 -> 2
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
      << "handoff must serve blocked acquirers in enqueue order";
  EXPECT_EQ(reg.handoff_deliveries(), 3);
}

// --- 2. native stress -------------------------------------------------------

// Threads churn acquire/release; at every instant each lane has at most one
// owner. Ownership is tracked with per-lane atomic flags: a second owner of
// the same lane would trip the exchange check.
TEST(LaneRegistryStress, LanesStayExclusiveUnderChurn) {
  const int threads = 4;
  const int per_thread = 2000;
  const int max_lanes = 3;  // fewer lanes than threads: contention + kNone paths
  svc::LaneRegistry reg(max_lanes);
  std::vector<std::atomic<int>> owner_flag(static_cast<size_t>(max_lanes));
  for (auto& f : owner_flag) f.store(0);
  std::atomic<int> acquired{0};
  std::atomic<bool> ok{true};
  rt::run_stress(threads, per_thread, [&](int, int) {
    rt::TimedOp op;
    int lane = reg.try_acquire();
    if (lane == svc::LaneRegistry::kNone) return op;  // all held right now
    acquired.fetch_add(1);
    if (owner_flag[static_cast<size_t>(lane)].exchange(1) != 0) {
      ok.store(false);  // two concurrent owners of one lane
    }
    owner_flag[static_cast<size_t>(lane)].store(0);
    reg.release(lane);
    return op;
  });
  EXPECT_TRUE(ok.load()) << "a lane was held by two threads at once";
  EXPECT_GT(acquired.load(), 0);
  // Quiescent: all lanes free again.
  std::set<int> drained;
  for (int i = 0; i < max_lanes; ++i) drained.insert(reg.try_acquire());
  EXPECT_EQ(drained, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
}

// --- 3. the sim facet: strongly linearizable --------------------------------

/// LaneRegistry's free set under the checker: rt::BasicSet<sim::SimMem>,
/// filled with every lane before the run as the constructor fills it (outside
/// a fiber, a fill takes no step). Acquire is one take, kNone when the set
/// stabilises empty; Release is one put. Both record on `lanes`.
class SimLanes {
 public:
  static constexpr int64_t kNone = svc::LaneRegistry::kNone;

  explicit SimLanes(int max_lanes) {
    for (int64_t l = 0; l < max_lanes; ++l) free_.put(l);
  }
  int64_t acquire(sim::Ctx& ctx) {
    return as_num(sim::record_op(ctx, "lanes", "Acquire", unit(), [&] {
      int64_t lane = free_.take();
      return num(lane == Set::kEmpty ? kNone : lane);
    }));
  }
  void release(sim::Ctx& ctx, int64_t lane) {
    sim::record_op(ctx, "lanes", "Release", num(lane), [&] {
      free_.put(lane);
      return unit();
    });
  }

 private:
  using Set = rt::BasicSet<sim::SimMem>;
  Set free_;
};

verify::StrongLinResult check_lanes(const sim::ScenarioFn& scenario, int n,
                                    int max_lanes) {
  sim::ExploreOptions opts;
  opts.max_depth = 40;
  opts.max_nodes = 400000;
  sim::ExecGraph graph = sim::explore(n, scenario, opts);
  EXPECT_FALSE(graph.budget_exhausted) << "graph budget too small: " << graph.size();
  verify::LaneRegistrySpec spec(max_lanes);
  verify::StrongLinOptions slopts;
  slopts.object = "lanes";
  return verify::check_strong_linearizability(graph, spec, slopts);
}

// One lane, two processes: every interleaving of {first take, recycle after
// release, kNone when held} must admit a prefix-closed linearization. This is
// the configuration where acquire's linearization point matters most — P1's
// acquire races P0's release.
TEST(LaneRegistrySim, AcquireReleaseStronglyLinearizable) {
  auto scenario = [](sim::SimRun& run) {
    auto reg = std::make_shared<SimLanes>(1);
    for (int p = 0; p < 2; ++p) {
      run.sched.spawn(p, [reg](sim::Ctx& ctx) {
        int64_t a = reg->acquire(ctx);  // first 0, recycled 0, or kNone
        if (a != SimLanes::kNone) reg->release(ctx, a);
      });
    }
  };
  auto res = check_lanes(scenario, 2, 1);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Two lanes, two processes: concurrent fresh acquires must hand out distinct
// lanes; P0 then releases and re-acquires, racing its own freed lane against
// the lane P1 may not have taken yet.
TEST(LaneRegistrySim, ConcurrentAcquiresGetDistinctLanes) {
  auto scenario = [](sim::SimRun& run) {
    auto reg = std::make_shared<SimLanes>(2);
    run.sched.spawn(0, [reg](sim::Ctx& ctx) {
      int64_t a = reg->acquire(ctx);
      reg->release(ctx, a);      // two lanes fit two procs: a != kNone
      reg->acquire(ctx);         // recycled a or the lane P1 has not taken
    });
    run.sched.spawn(1, [reg](sim::Ctx& ctx) { reg->acquire(ctx); });
  };
  auto res = check_lanes(scenario, 2, 2);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Three acquirers on two lanes: two of them win distinct lanes and the third
// gets kNone, at the stabilised EMPTY read of its take, in every complete
// execution.
TEST(LaneRegistrySim, ThreeAcquirersOnTwoLanesOneGetsNone) {
  auto scenario = [](sim::SimRun& run) {
    auto reg = std::make_shared<SimLanes>(2);
    for (int p = 0; p < 3; ++p) {
      run.sched.spawn(p, [reg](sim::Ctx& ctx) { reg->acquire(ctx); });
    }
  };
  auto res = check_lanes(scenario, 3, 2);
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

}  // namespace
}  // namespace c2sl
