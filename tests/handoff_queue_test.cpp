// HandoffQueue (runtime/handoff_queue.h) — the consensus-2 FIFO handoff
// behind blocking C2Store::open_session().
//
//  1. Native unit tests: FIFO delivery in ticket order, the no-waiter and
//     cancellation paths of the cell state machine, timed waits.
//  2. Native threaded tests: a parked waiter is woken by a handoff; racing
//     deliverers produce exactly one delivery, and an overshot (revoked)
//     slot sends its eventual waiter into the documented retry path.
//  3. The checker runs rt::BasicHandoffQueue over sim::SimMem — the serving
//     code, each word access one step and a park one blocking step — on
//     whole execution trees against verify::HandoffSpec: racing enqueues,
//     ticket-order FIFO delivery, awaits, the overshoot that revokes the next
//     ticket, and a cancel racing a hand are strongly linearizable. Two pins
//     mark where ticket-order FIFO stops: a cancel that voids a committed
//     hand, and a third concurrent hand whose overshoot revokes a ticket
//     past one that is still served.
//  4. The negative control: baselines/herlihy_wing_queue, whose dequeue
//     scans for the first announced slot, keeps refuting on the
//     three-process family (the known Theorem-17 exhibit), so a checker or
//     explorer regression cannot silently pass everything.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "baselines/herlihy_wing_queue.h"
#include "harness.h"
#include "runtime/handoff_queue.h"
#include "sim/sim_mem.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

namespace c2sl {
namespace {

using verify::Invocation;

// --- 1. native unit ---------------------------------------------------------

TEST(HandoffQueue, DeliversInTicketOrder) {
  rt::HandoffQueue q;
  size_t t0 = q.enqueue();
  size_t t1 = q.enqueue();
  EXPECT_EQ(t0, 0u);
  EXPECT_EQ(t1, 1u);
  EXPECT_TRUE(q.hand(5));
  EXPECT_TRUE(q.hand(7));
  EXPECT_EQ(q.await(t0), 5) << "oldest ticket gets the first value";
  EXPECT_EQ(q.await(t1), 7);
  EXPECT_EQ(q.deliveries(), 2);
  EXPECT_EQ(q.parks(), 0) << "pre-deposited values must not park the waiter";
}

TEST(HandoffQueue, HandWithoutWaitersFailsWithoutBurningTickets) {
  rt::HandoffQueue q;
  EXPECT_FALSE(q.hand(3));
  EXPECT_FALSE(q.hand(4));
  EXPECT_EQ(q.hands_started(), 0) << "the guard pre-read must keep Head parked";
  EXPECT_EQ(q.deliveries(), 0);
  EXPECT_FALSE(q.waiters_pending());
}

TEST(HandoffQueue, CancelledWaiterIsSkippedNotServed) {
  rt::HandoffQueue q;
  size_t t0 = q.enqueue();
  EXPECT_EQ(q.cancel(t0), rt::HandoffQueue::kCancelled);
  // The tombstoned slot must not swallow the value: with no live waiter the
  // hand reports failure and the caller keeps the lane.
  EXPECT_FALSE(q.hand(9));
  EXPECT_EQ(q.deliveries(), 0);
  // A fresh waiter behind the tombstone is served normally.
  size_t t1 = q.enqueue();
  EXPECT_TRUE(q.hand(9));
  EXPECT_EQ(q.await(t1), 9);
}

TEST(HandoffQueue, DeliveryBeatsCancellation) {
  rt::HandoffQueue q;
  size_t t0 = q.enqueue();
  EXPECT_TRUE(q.hand(6));
  // The cancel lost the race: the caller now owns the value and must route it.
  EXPECT_EQ(q.cancel(t0), 6);
}

TEST(HandoffQueue, AwaitUntilTimesOutAndCancelsCleanly) {
  rt::HandoffQueue q;
  size_t t0 = q.enqueue();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_EQ(q.await_until(t0, deadline), rt::HandoffQueue::kTimedOut);
  EXPECT_EQ(q.cancel(t0), rt::HandoffQueue::kCancelled);
  EXPECT_FALSE(q.hand(2)) << "the timed-out slot must not swallow a value";
}

// --- 2. native threads ------------------------------------------------------

TEST(HandoffQueue, ParkedWaiterIsWokenByHandoff) {
  rt::HandoffQueue q;
  size_t t = q.enqueue();
  std::atomic<int64_t> got{INT64_MIN};
  std::thread waiter([&] { got.store(q.await(t), std::memory_order_seq_cst); });
  while (q.parks() == 0) std::this_thread::yield();  // until genuinely parked
  EXPECT_TRUE(q.hand(42));
  waiter.join();
  EXPECT_EQ(got.load(), 42);
  EXPECT_EQ(q.parks(), 1);
}

// Two deliverers race one waiter: exactly one delivery ever happens, and when
// the loser overshoots (revoking the phantom next slot), the NEXT waiter to
// take that ticket observes kRevoked — the documented "fallback was refilled,
// retry there" signal the lane registry acts on.
TEST(HandoffQueue, RacingDeliverersProduceOneDeliveryAndRevokedSlotsRetry) {
  int revoked_rounds = 0;
  for (int round = 0; round < 200; ++round) {
    rt::HandoffQueue q;
    size_t t0 = q.enqueue();
    std::atomic<int> delivered{0};
    std::thread d1([&] { delivered.fetch_add(q.hand(1) ? 1 : 0); });
    std::thread d2([&] { delivered.fetch_add(q.hand(2) ? 1 : 0); });
    d1.join();
    d2.join();
    EXPECT_EQ(delivered.load(), 1) << "round " << round;
    int64_t v = q.await(t0);
    EXPECT_TRUE(v == 1 || v == 2) << "round " << round << " got " << v;
    EXPECT_LE(q.revocations(), 1) << "round " << round;
    if (q.revocations() == 1) {
      ++revoked_rounds;
      size_t t1 = q.enqueue();
      EXPECT_EQ(q.await(t1), rt::HandoffQueue::kRevoked)
          << "a waiter on an overshot slot must be told to retry";
    }
  }
  // Informational: the overshoot window is narrow; it is fine for a
  // timesliced host to never hit it here (TSAN stress covers it too).
  (void)revoked_rounds;
}

// --- 3. the checker runs the queue itself ---------------------------------

using HandoffObject = testing::MemHandoffObject<rt::BasicHandoffQueue<sim::SimMem>>;

Invocation enq(int64_t w) { return {"Enq", num(w)}; }
Invocation hand(int64_t v) { return {"Hand", num(v)}; }
Invocation await(int64_t w) { return {"Await", num(w)}; }
Invocation cancel(int64_t w) { return {"Cancel", num(w)}; }

struct Checked {
  sim::ExecGraph tree;
  verify::StrongLinResult res;
};

/// Explores the scenario's tree to `max_depth` and checks `object` on it
/// against `spec`.
Checked check(const testing::ObjectFactory& factory,
              std::vector<std::vector<Invocation>> per_proc, const std::string& object,
              const verify::Spec& spec, int max_depth, size_t max_nodes) {
  sim::ExploreOptions opts;
  opts.max_depth = max_depth;
  opts.max_nodes = max_nodes;
  int n = static_cast<int>(per_proc.size());
  Checked out;
  out.tree = sim::explore(n, testing::fixed_scenario(factory, std::move(per_proc)), opts);
  EXPECT_FALSE(out.tree.budget_exhausted) << "tree budget too small: " << out.tree.size();
  verify::StrongLinOptions slopts;
  slopts.object = object;
  slopts.max_search_nodes = 30'000'000;
  out.res = verify::check_strong_linearizability(out.tree, spec, slopts);
  return out;
}

/// Every handoff op finishes or blocks within a few steps, so its trees are
/// explored whole: no node may be cut by the depth bound.
Checked check_handoff(std::vector<std::vector<Invocation>> per_proc) {
  auto factory = [](sim::World&, int) { return std::make_shared<HandoffObject>("hq"); };
  Checked c = check(factory, std::move(per_proc), "hq", verify::HandoffSpec{},
                    /*max_depth=*/32, /*max_nodes=*/400000);
  for (const sim::ExecNode& node : c.tree.nodes) {
    EXPECT_FALSE(node.truncated) << "node " << node.id << " cut at depth " << node.depth;
  }
  return c;
}

// Two concurrent enqueuers race one hand: the hand's Head fetch&add commits
// it to ticket 0 no matter how the waiters' claims land afterwards.
TEST(HandoffQueueSim, ConcurrentEnqueuersOneHandoffStronglyLinearizable) {
  auto c = check_handoff({{enq(1)}, {enq(2)}, {hand(5)}});
  ASSERT_TRUE(c.res.decided);
  EXPECT_TRUE(c.res.strongly_linearizable) << c.res.report;
}

// The same race with the first waiter awaiting: its Await is enabled only
// once its outcome is fixed, so a waiter that the hand passed over stays
// blocked and the run ends with its Await pending.
TEST(HandoffQueueSim, AwaitingEnqueuerRacingSecondEnqueuerStronglyLinearizable) {
  auto c = check_handoff({{enq(1), await(1)}, {enq(2)}, {hand(5)}});
  ASSERT_TRUE(c.res.decided);
  EXPECT_TRUE(c.res.strongly_linearizable) << c.res.report;
}

// One enqueuer, two hands in program order: values reach the waiters in
// ticket order through every interleaving, including the windows where a
// hand overlaps a waiter between its ticket and its claim, and where a
// waiter parks before its value arrives.
TEST(HandoffQueueSim, SequentialEnqueuesHandedFifoStronglyLinearizable) {
  auto c = check_handoff({{enq(1), enq(2)}, {hand(5), hand(6)}});
  ASSERT_TRUE(c.res.decided);
  EXPECT_TRUE(c.res.strongly_linearizable) << c.res.report;
  auto awaited =
      check_handoff({{enq(1), enq(2), await(1), await(2)}, {hand(5), hand(6)}});
  ASSERT_TRUE(awaited.res.decided);
  EXPECT_TRUE(awaited.res.strongly_linearizable) << awaited.res.report;
}

// The empty path: a hand racing a single enqueue either commits to ticket 0
// or reports EMPTY from its guard reads, both at fixed own steps.
TEST(HandoffQueueSim, HandoffRacingEnqueueStronglyLinearizable) {
  auto c = check_handoff({{hand(5)}, {enq(1), await(1)}});
  ASSERT_TRUE(c.res.decided);
  EXPECT_TRUE(c.res.strongly_linearizable) << c.res.report;
}

// The overshoot: two hands pass the guard on one waiter, the loser's Head
// ticket lands past Tail, and it revokes that slot, so the waiter that later
// draws the ticket is told to retry. At least one leaf must show it.
TEST(HandoffQueueSim, OvershootRevokesTheNextTicketStronglyLinearizable) {
  auto c = check_handoff({{enq(1)}, {hand(5)}, {hand(6), enq(2), await(2)}});
  ASSERT_TRUE(c.res.decided);
  EXPECT_TRUE(c.res.strongly_linearizable) << c.res.report;
  bool revoked = false;
  c.tree.for_each_path([&](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    if (!node.edges.empty()) return;
    for (const sim::OpRecord& op : verify::operations_from_events(history)) {
      revoked |= op.complete && op.name == "Await" && op.resp == str("REVOKED");
    }
  });
  EXPECT_TRUE(revoked) << "no leaf reached the overshoot's revocation";
}

// A cancel racing the only hand: the tombstone exchange and the hand's value
// exchange on the same cell decide between CANCELLED (the hand then reports
// EMPTY) and the value (the canceller owns it).
TEST(HandoffQueueSim, CancelRacingOneHandStronglyLinearizable) {
  auto c = check_handoff({{enq(1), cancel(1)}, {hand(5)}});
  ASSERT_TRUE(c.res.decided);
  EXPECT_TRUE(c.res.strongly_linearizable) << c.res.report;
}

// PINNED: a cancel can void a committed handoff. Hand(5) commits to ticket
// 0 and Hand(6) to ticket 1; Hand(6) delivers to ticket 1 while ticket 0 is
// still waiting, which ticket-order FIFO forbids unless ticket 0 is already
// gone; ticket 0's waiter then cancels and Hand(5) finds the tombstone and
// reports EMPTY. Around timed-out waiters the queue is FIFO in commitment
// order only (docs/PROOFS.md, "The handoff queue").
TEST(HandoffQueueSim, CancellationVoidsStrictFifoRefuted) {
  auto c = check_handoff({{enq(1)}, {enq(2)}, {hand(5)}, {hand(6), cancel(1)}});
  ASSERT_TRUE(c.res.decided);
  EXPECT_FALSE(c.res.strongly_linearizable)
      << "a cancel after a younger waiter was served must refute ticket-order FIFO";
}

// PINNED: HandoffSpec's one head index covers at most two concurrent hands.
// Three hands pass the guard on one waiter and draw Head tickets 0, 1 and 2.
// The third re-reads Tail first, overshoots and revokes slot 2 while the
// second still holds slot 1 undecided. A later waiter draws ticket 1 and is
// served; the next finds slot 2 revoked. A ticket past a served one was
// revoked, which no single head can express: this one history is not even
// linearizable against the spec, so the ticket-order claim stops at two
// concurrent hands (docs/PROOFS.md, "The handoff queue").
TEST(HandoffQueueSim, ThirdConcurrentHandOutrunsHandoffSpec) {
  sim::SimRun run(4);
  auto factory = [](sim::World&, int) { return std::make_shared<HandoffObject>("hq"); };
  testing::fixed_scenario(factory, {{enq(1)},
                                    {hand(5)},
                                    {hand(6)},
                                    {hand(7), enq(2), enq(3), await(3)}})(run);
  std::vector<sim::Choice> script;
  // Guards of all three hands, Head tickets 0, 1, 2 in order, then the third
  // hand's overshoot and its process's enqueue of ticket 1 before the second
  // hand re-reads Tail.
  for (sim::ProcId p : {0, 1, 1, 2, 2, 3, 3, 1, 2, 3, 3, 3, 3, 2, 2, 3, 3, 1, 1}) {
    script.push_back({p, false});
  }
  sim::ReplayStrategy replay(script);
  EXPECT_TRUE(run.sched.run(replay, script.size()).all_done);
  std::vector<sim::OpRecord> ops = run.history.operations();
  ASSERT_EQ(ops.size(), 7u);
  EXPECT_EQ(ops[2].resp, str("OK")) << "Hand(6) serves the waiter on ticket 1";
  EXPECT_EQ(ops[3].resp, str("EMPTY")) << "Hand(7) overshot";
  EXPECT_EQ(ops[6].resp, str("REVOKED")) << "Await(3) finds slot 2 revoked";
  auto lin = verify::check_object_linearizability(ops, "hq", verify::HandoffSpec{});
  ASSERT_TRUE(lin.decided);
  EXPECT_FALSE(lin.linearizable);
}

// --- 4. negative control: Herlihy–Wing on the same schedule family --------

// PINNED: Herlihy–Wing's dequeue scans for the first announced slot (ticket
// fetch&add, cell write, then a swap-scan from 0 to Tail). With both tickets
// drawn but neither announced, which enqueuer it serves is decided by future
// cell writes, so no prefix-closed linearization exists (Theorem 17). That
// refutation is why rt::HandoffQueue commits each hand at its own Head
// fetch&add. If this starts passing, the checker or the explorer broke.
TEST(HandoffQueueSim, HerlihyWingPositiveControlStillRefuted) {
  auto factory = [](sim::World& w, int) {
    return std::make_shared<baselines::HerlihyWingQueue>(w, "queue");
  };
  auto c = check(factory,
                 {{{"Enq", num(1), 0}}, {{"Enq", num(2), 1}}, {{"Deq", unit(), 2}}},
                 "queue", verify::QueueSpec{}, /*max_depth=*/14, /*max_nodes=*/500000);
  ASSERT_TRUE(c.res.decided);
  EXPECT_FALSE(c.res.strongly_linearizable)
      << "publication-order delivery must NOT verify (Theorem 17) — this "
         "refutation is why the handoff commits at its own Head fetch&add";
}

}  // namespace
}  // namespace c2sl
