// Transition-table tests for every sequential specification in verify/specs.h.
// The checkers are only as good as the specs; each case pins down initial
// states, allowed transitions, responses, and rejection of malformed
// invocations — including the nondeterministic relaxed specs of §5.
#include "verify/specs.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace c2sl {
namespace {

using verify::Invocation;
using verify::Transition;

std::vector<Val> responses(const std::vector<Transition>& ts) {
  std::vector<Val> out;
  for (const Transition& t : ts) out.push_back(t.resp);
  return out;
}

TEST(MaxRegisterSpec, Transitions) {
  verify::MaxRegisterSpec spec;
  EXPECT_EQ(spec.initial(), "0");
  auto w = spec.next("3", {"WriteMax", num(5), 0});
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].state, "5");
  EXPECT_TRUE(is_unit(w[0].resp));
  // Smaller write leaves the state.
  auto w2 = spec.next("7", {"WriteMax", num(5), 0});
  ASSERT_EQ(w2.size(), 1u);
  EXPECT_EQ(w2[0].state, "7");
  auto r = spec.next("7", {"ReadMax", unit(), 0});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].resp, num(7));
  EXPECT_EQ(r[0].state, "7");
  EXPECT_TRUE(spec.next("7", {"Bogus", unit(), 0}).empty());
}

TEST(SnapshotSpec, Transitions) {
  verify::SnapshotSpec spec(3);
  EXPECT_EQ(spec.initial(), "0,0,0");
  auto u = spec.next("0,0,0", {"Update", num(9), /*proc=*/1});
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0].state, "0,9,0");
  auto s = spec.next("0,9,0", {"Scan", unit(), 2});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].resp, vec({0, 9, 0}));
}

TEST(CounterSpec, Transitions) {
  verify::CounterSpec spec;
  EXPECT_EQ(spec.next("4", {"Inc", unit(), 0})[0].state, "5");
  EXPECT_EQ(spec.next("4", {"Add", num(3), 0})[0].state, "7");
  EXPECT_EQ(spec.next("4", {"Read", unit(), 0})[0].resp, num(4));
}

TEST(LogicalClockSpec, Transitions) {
  verify::LogicalClockSpec spec;
  EXPECT_EQ(spec.next("4", {"Join", num(9), 0})[0].state, "9");
  EXPECT_EQ(spec.next("9", {"Join", num(2), 0})[0].state, "9");
  EXPECT_EQ(spec.next("9", {"Observe", unit(), 0})[0].resp, num(9));
}

TEST(UnionSetSpec, Transitions) {
  verify::UnionSetSpec spec;
  EXPECT_EQ(spec.initial(), "");
  auto i1 = spec.next("", {"Insert", num(4), 0});
  EXPECT_EQ(i1[0].state, "4");
  auto i2 = spec.next("4", {"Insert", num(2), 0});
  EXPECT_EQ(i2[0].state, "2,4");  // canonical sorted encoding
  auto i3 = spec.next("2,4", {"Insert", num(4), 0});
  EXPECT_EQ(i3[0].state, "2,4");  // idempotent
  EXPECT_EQ(spec.next("2,4", {"Has", num(4), 0})[0].resp, num(1));
  EXPECT_EQ(spec.next("2,4", {"Has", num(5), 0})[0].resp, num(0));
}

TEST(TasSpec, SingleShotTransitions) {
  verify::TasSpec spec;
  auto t0 = spec.next("0", {"TAS", unit(), 0});
  ASSERT_EQ(t0.size(), 1u);
  EXPECT_EQ(t0[0].resp, num(0));
  EXPECT_EQ(t0[0].state, "1");
  auto t1 = spec.next("1", {"TAS", unit(), 0});
  EXPECT_EQ(t1[0].resp, num(1));
  // Reset rejected without multi-shot.
  EXPECT_TRUE(spec.next("1", {"Reset", unit(), 0}).empty());
}

TEST(TasSpec, MultiShotReset) {
  verify::TasSpec spec(/*multi_shot=*/true);
  auto r = spec.next("1", {"Reset", unit(), 0});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].state, "0");
  EXPECT_EQ(spec.next("0", {"Reset", unit(), 0})[0].state, "0");  // idempotent
  EXPECT_EQ(spec.next("0", {"TAS", unit(), 0})[0].resp, num(0));  // winnable again
}

TEST(FaiSpec, Transitions) {
  verify::FaiSpec spec;
  auto f = spec.next("3", {"FAI", unit(), 0});
  EXPECT_EQ(f[0].resp, num(3));
  EXPECT_EQ(f[0].state, "4");
  EXPECT_EQ(spec.next("3", {"Read", unit(), 0})[0].resp, num(3));
}

TEST(SetSpec, NondeterministicTake) {
  verify::SetSpec spec;
  EXPECT_EQ(spec.next("", {"Take", unit(), 0})[0].resp, str("EMPTY"));
  auto takes = spec.next("2,5,9", {"Take", unit(), 0});
  ASSERT_EQ(takes.size(), 3u);  // any element may be removed
  std::vector<Val> resps = responses(takes);
  EXPECT_NE(std::find(resps.begin(), resps.end(), num(2)), resps.end());
  EXPECT_NE(std::find(resps.begin(), resps.end(), num(9)), resps.end());
  for (const Transition& t : takes) {
    EXPECT_EQ(t.state.size(), std::string("2,5").size());  // one element removed
  }
  // Put is idempotent on membership and always returns OK.
  EXPECT_EQ(spec.next("2", {"Put", num(2), 0})[0].resp, str("OK"));
}

TEST(LaneRegistrySpec, AcquireHandsOutFreeLanesOnly) {
  verify::LaneRegistrySpec spec(3);
  EXPECT_EQ(spec.initial(), "");
  // Empty registry: any of the 3 lanes may be granted; -1 is NOT allowed.
  auto acq = spec.next("", {"Acquire", unit(), 0});
  ASSERT_EQ(acq.size(), 3u);
  std::vector<Val> resps = responses(acq);
  for (int64_t l = 0; l < 3; ++l) {
    EXPECT_NE(std::find(resps.begin(), resps.end(), num(l)), resps.end());
  }
  // Lane 1 held: only 0 and 2 remain grantable.
  auto acq2 = spec.next("1", {"Acquire", unit(), 0});
  std::vector<Val> resps2 = responses(acq2);
  ASSERT_EQ(acq2.size(), 2u);
  EXPECT_EQ(std::find(resps2.begin(), resps2.end(), num(1)), resps2.end());
  // Full registry: ONLY -1 is allowed, and the state is unchanged.
  auto full = spec.next("0,1,2", {"Acquire", unit(), 0});
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].resp, num(-1));
  EXPECT_EQ(full[0].state, "0,1,2");
}

TEST(LaneRegistrySpec, ReleaseRequiresOwnership) {
  verify::LaneRegistrySpec spec(3);
  auto rel = spec.next("0,2", {"Release", num(2), 0});
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel[0].state, "0");
  EXPECT_TRUE(is_unit(rel[0].resp));
  EXPECT_TRUE(spec.next("0", {"Release", num(2), 0}).empty())
      << "releasing an unheld lane must be illegal";
  EXPECT_TRUE(spec.next("0", {"Bogus", unit(), 0}).empty());
}

TEST(QueueSpec, ExactFifo) {
  verify::QueueSpec spec;
  auto e = spec.next("", {"Enq", num(7), 0});
  EXPECT_EQ(e[0].state, "7");
  EXPECT_EQ(e[0].resp, str("OK"));
  auto d = spec.next("7,8", {"Deq", unit(), 0});
  ASSERT_EQ(d.size(), 1u);  // k == 1: only the head
  EXPECT_EQ(d[0].resp, num(7));
  EXPECT_EQ(d[0].state, "8");
  EXPECT_EQ(spec.next("", {"Deq", unit(), 0})[0].resp, str("EMPTY"));
}

TEST(QueueSpec, KOutOfOrderWindow) {
  verify::QueueSpec spec(/*k=*/3);
  auto d = spec.next("1,2,3,4,5", {"Deq", unit(), 0});
  ASSERT_EQ(d.size(), 3u);  // any of the 3 oldest
  std::vector<Val> resps = responses(d);
  EXPECT_NE(std::find(resps.begin(), resps.end(), num(1)), resps.end());
  EXPECT_NE(std::find(resps.begin(), resps.end(), num(3)), resps.end());
  EXPECT_EQ(std::find(resps.begin(), resps.end(), num(4)), resps.end());
  // Window never exceeds the queue length.
  EXPECT_EQ(spec.next("9", {"Deq", unit(), 0}).size(), 1u);
}

/// Applies `inv` to `state` where the spec allows exactly one transition.
Transition only(const verify::Spec& spec, const std::string& state, const Invocation& inv) {
  std::vector<Transition> ts = spec.next(state, inv);
  EXPECT_EQ(ts.size(), 1u) << inv.name << " in state " << state;
  return ts.empty() ? Transition{state, unit()} : ts[0];
}

TEST(HandoffSpec, HandsServeWaitersInTicketOrder) {
  verify::HandoffSpec spec;
  std::string s = spec.initial();
  for (int64_t w : {1, 2}) {
    Transition t = only(spec, s, {"Enq", num(w), 0});
    EXPECT_EQ(t.resp, str("OK"));
    s = t.state;
  }
  for (int64_t v : {5, 6}) {
    Transition t = only(spec, s, {"Hand", num(v), 0});
    EXPECT_EQ(t.resp, str("OK"));
    s = t.state;
  }
  EXPECT_EQ(only(spec, s, {"Await", num(1), 0}).resp, num(5));
  EXPECT_EQ(only(spec, s, {"Await", num(2), 0}).resp, num(6));
  EXPECT_TRUE(spec.next(s, {"Enq", num(1), 0}).empty()) << "waiter ids are distinct";
}

TEST(HandoffSpec, EmptyHandLeavesHeadOrOvershootsAndRevokesTheNextTicket) {
  verify::HandoffSpec spec;
  std::vector<Transition> hands = spec.next(spec.initial(), {"Hand", num(5), 0});
  ASSERT_EQ(hands.size(), 2u);
  EXPECT_EQ(hands[0].resp, str("EMPTY"));
  EXPECT_EQ(hands[1].resp, str("EMPTY"));
  // Head left alone: the next waiter waits, and the next hand serves it.
  std::string alone = only(spec, hands[0].state, {"Enq", num(1), 0}).state;
  EXPECT_TRUE(spec.next(alone, {"Await", num(1), 0}).empty());
  alone = only(spec, alone, {"Hand", num(6), 0}).state;
  EXPECT_EQ(only(spec, alone, {"Await", num(1), 0}).resp, num(6));
  // Overshoot: the next ticket enters revoked, and a hand finds no waiter.
  std::string over = only(spec, hands[1].state, {"Enq", num(1), 0}).state;
  EXPECT_EQ(only(spec, over, {"Await", num(1), 0}).resp, str("REVOKED"));
  std::vector<Transition> after = spec.next(over, {"Hand", num(6), 0});
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(responses(after), (std::vector<Val>{str("EMPTY"), str("EMPTY")}));
}

TEST(HandoffSpec, AwaitIsEnabledOnlyOnceItsOutcomeIsFixed) {
  verify::HandoffSpec spec;
  EXPECT_TRUE(spec.next(spec.initial(), {"Await", num(1), 0}).empty());
  std::string s = only(spec, spec.initial(), {"Enq", num(1), 0}).state;
  EXPECT_TRUE(spec.next(s, {"Await", num(1), 0}).empty()) << "still waiting";
  s = only(spec, s, {"Hand", num(5), 0}).state;
  Transition t = only(spec, s, {"Await", num(1), 0});
  EXPECT_EQ(t.resp, num(5));
  EXPECT_EQ(t.state, s);
}

TEST(HandoffSpec, EveryCancelOutcome) {
  verify::HandoffSpec spec;
  // Before the waiter's enqueue.
  Transition none = only(spec, spec.initial(), {"Cancel", num(1), 0});
  EXPECT_EQ(none.resp, str("NONE"));
  EXPECT_EQ(none.state, spec.initial());
  // A waiting waiter is cancelled; hands skip it, and no Await follows.
  std::string s = only(spec, spec.initial(), {"Enq", num(1), 0}).state;
  s = only(spec, s, {"Enq", num(2), 0}).state;
  s = only(spec, s, {"Cancel", num(1), 0}).state;
  EXPECT_TRUE(spec.next(s, {"Await", num(1), 0}).empty());
  EXPECT_EQ(only(spec, s, {"Cancel", num(1), 0}).resp, str("CANCELLED"));
  s = only(spec, s, {"Hand", num(5), 0}).state;
  EXPECT_EQ(only(spec, s, {"Await", num(2), 0}).resp, num(5));
  // A delivered waiter's cancel returns the value; the canceller owns it.
  EXPECT_EQ(only(spec, s, {"Cancel", num(2), 0}).resp, num(5));
  // Only cancelled waiters ahead: the hand finds no one.
  std::vector<Transition> hands = spec.next(
      only(spec, only(spec, spec.initial(), {"Enq", num(3), 0}).state, {"Cancel", num(3), 0})
          .state,
      {"Hand", num(7), 0});
  EXPECT_EQ(responses(hands), (std::vector<Val>{str("EMPTY"), str("EMPTY")}));
  // A revoked waiter's cancel reports the revocation.
  std::string over = spec.next(spec.initial(), {"Hand", num(5), 0})[1].state;
  over = only(spec, over, {"Enq", num(4), 0}).state;
  EXPECT_EQ(only(spec, over, {"Cancel", num(4), 0}).resp, str("REVOKED"));
  EXPECT_TRUE(spec.next(spec.initial(), {"Deq", unit(), 0}).empty());
}

TEST(StackSpec, Lifo) {
  verify::StackSpec spec;
  auto p = spec.next("1,2", {"Push", num(3), 0});
  EXPECT_EQ(p[0].state, "1,2,3");
  auto pop = spec.next("1,2,3", {"Pop", unit(), 0});
  EXPECT_EQ(pop[0].resp, num(3));
  EXPECT_EQ(pop[0].state, "1,2");
  EXPECT_EQ(spec.next("", {"Pop", unit(), 0})[0].resp, str("EMPTY"));
}

TEST(StutteringQueueSpec, BudgetedStutters) {
  verify::StutteringQueueSpec spec(/*m=*/2);
  EXPECT_EQ(spec.initial(), "0:0:");
  // Enq with budget left: two options (land or stutter).
  auto e = spec.next("1:0:7", {"Enq", num(9), 0});
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0].state, "0:0:7,9");  // landing resets the counter
  EXPECT_EQ(e[1].state, "2:0:7");    // stutter consumes budget
  // Budget exhausted: landing is forced.
  auto forced = spec.next("2:0:7", {"Enq", num(9), 0});
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0].state, "0:0:7,9");
  // Stuttering Deq returns the front WITHOUT removing it.
  auto d = spec.next("0:0:7,8", {"Deq", unit(), 0});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].resp, num(7));
  EXPECT_EQ(d[0].state, "0:0:8");
  EXPECT_EQ(d[1].resp, num(7));
  EXPECT_EQ(d[1].state, "0:1:7,8");
  // Deq on empty is EMPTY regardless of budgets.
  EXPECT_EQ(spec.next("1:1:", {"Deq", unit(), 0})[0].resp, str("EMPTY"));
}

TEST(OperationsFromEvents, RebuildsTable) {
  std::vector<sim::Event> events;
  events.push_back({sim::Event::Kind::kInvoke, 0, 0, 0, "q", "Enq", num(5)});
  events.push_back({sim::Event::Kind::kStep, 0, -1, 1, "q.tail", "faa", Val{}});
  events.push_back({sim::Event::Kind::kInvoke, 1, 1, 2, "q", "Deq", unit()});
  events.push_back({sim::Event::Kind::kRespond, 0, 0, 3, "", "", str("OK")});
  auto ops = verify::operations_from_events(events);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].complete);
  EXPECT_EQ(ops[0].resp, str("OK"));
  EXPECT_EQ(ops[0].inv_seq, 0u);
  EXPECT_EQ(ops[0].resp_seq, 3u);
  EXPECT_FALSE(ops[1].complete);
  EXPECT_EQ(ops[1].name, "Deq");
}

TEST(ValueCodec, RoundTrips) {
  for (const Val& v : {unit(), num(0), num(-17), num(INT64_MAX), vec({}),
                       vec({1, -2, 3}), str(""), str("EMPTY"), str("with:colons,commas")}) {
    EXPECT_EQ(decode_val(encode_val(v)), v) << to_string(v);
  }
}

TEST(ValueCodec, HashSeparates) {
  EXPECT_NE(hash_val(num(1)), hash_val(num(2)));
  EXPECT_NE(hash_val(num(1)), hash_val(vec({1})));
  EXPECT_NE(hash_val(str("OK")), hash_val(str("EMPTY")));
  EXPECT_EQ(hash_val(vec({1, 2})), hash_val(vec({1, 2})));
}

}  // namespace
}  // namespace c2sl
