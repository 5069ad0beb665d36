// Unit tests for the strong-linearizability model checker itself, on
// hand-crafted execution trees with known verdicts — independent of any real
// implementation, so checker bugs cannot hide behind implementation bugs.
#include "verify/strong_lin.h"

#include <gtest/gtest.h>

#include "verify/specs.h"

namespace c2sl {
namespace {

using sim::Event;
using sim::ExecGraph;

Event inv(sim::ProcId p, sim::OpId op, uint64_t seq, std::string name, Val args) {
  return Event{Event::Kind::kInvoke, p, op, seq, "obj", std::move(name), std::move(args)};
}

Event resp(sim::ProcId p, sim::OpId op, uint64_t seq, Val r) {
  return Event{Event::Kind::kRespond, p, op, seq, "", "", std::move(r)};
}

int add_node(ExecGraph& tree, int parent, std::vector<Event> suffix) {
  return tree.add_node(parent, sim::Choice{}, std::move(suffix));
}

TEST(StrongLinChecker, SingletonTreeWithValidHistory) {
  ExecGraph tree;
  add_node(tree, -1,
           {inv(0, 0, 0, "WriteMax", num(3)), resp(0, 0, 1, unit()),
            inv(0, 1, 2, "ReadMax", unit()), resp(0, 1, 3, num(3))});
  verify::MaxRegisterSpec spec;
  auto res = verify::check_strong_linearizability(tree, spec);
  EXPECT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable);
}

TEST(StrongLinChecker, SingletonTreeWithInvalidHistory) {
  // ReadMax returns a value never written: not even linearizable.
  ExecGraph tree;
  add_node(tree, -1,
           {inv(0, 0, 0, "ReadMax", unit()), resp(0, 0, 1, num(9))});
  verify::MaxRegisterSpec spec;
  auto res = verify::check_strong_linearizability(tree, spec);
  EXPECT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable);
}

// The canonical prefix-closure conflict: at the root a pending WriteMax(5) and
// a complete ReadMax->5 FORCE the pending write into L(root); one child then
// completes the write normally (consistent), but a sibling completes a
// DIFFERENT future: a second read returning 0 before the write lands is
// impossible... we build it directly with queue semantics instead:
// root: Enq(1) pending, Enq(2) complete.
//   child A: Deq -> 1  (forces Enq(1) before Enq(2))
//   child B: Deq -> 2  (forces Enq(2) first, with Enq(1) not before it)
// L(root) must contain Enq(2); extending into A needs Enq(1) BEFORE Enq(2),
// so L(root) itself must already be [Enq(1), Enq(2)] (prefix property), which
// kills child B. No prefix-closed assignment exists.
TEST(StrongLinChecker, DetectsPrefixClosureConflict) {
  ExecGraph tree;
  int root = add_node(tree, -1,
                      {inv(0, 0, 0, "Enq", num(1)),                    // pending
                       inv(1, 1, 1, "Enq", num(2)), resp(1, 1, 2, str("OK"))});
  add_node(tree, root,
           {resp(0, 0, 3, str("OK")),  // Enq(1) completes
            inv(2, 2, 4, "Deq", unit()), resp(2, 2, 5, num(1))});
  add_node(tree, root,
           {inv(2, 2, 3, "Deq", unit()), resp(2, 2, 4, num(2)),
            resp(0, 0, 5, str("OK"))});
  verify::QueueSpec spec;
  auto res = verify::check_strong_linearizability(tree, spec);
  EXPECT_TRUE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable);
  EXPECT_GE(res.witness_node, 0);
}

// The same shape WITHOUT the real-time forcing is fine: if Enq(2) is still
// pending at the root too, L(root) can be empty and each child picks its own
// order.
TEST(StrongLinChecker, NoConflictWhenBothPending) {
  ExecGraph tree;
  int root = add_node(tree, -1,
                      {inv(0, 0, 0, "Enq", num(1)), inv(1, 1, 1, "Enq", num(2))});
  add_node(tree, root,
           {resp(0, 0, 2, str("OK")), resp(1, 1, 3, str("OK")),
            inv(2, 2, 4, "Deq", unit()), resp(2, 2, 5, num(1))});
  add_node(tree, root,
           {resp(1, 1, 2, str("OK")), resp(0, 0, 3, str("OK")),
            inv(2, 2, 4, "Deq", unit()), resp(2, 2, 5, num(2))});
  verify::QueueSpec spec;
  auto res = verify::check_strong_linearizability(tree, spec);
  EXPECT_TRUE(res.decided);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// A chain (no branching) is strongly linearizable iff every prefix is
// linearizable — prefix-closure along one path.
TEST(StrongLinChecker, ChainRequiresMonotoneLinearizations) {
  ExecGraph tree;
  int root = add_node(tree, -1, {inv(0, 0, 0, "TAS", unit())});
  int mid = add_node(tree, root, {resp(0, 0, 1, num(0))});
  add_node(tree, mid, {inv(1, 1, 2, "TAS", unit()), resp(1, 1, 3, num(1))});
  verify::TasSpec spec;
  auto res = verify::check_strong_linearizability(tree, spec);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;

  // Two winners along the chain: invalid at the leaf.
  ExecGraph bad;
  int broot = add_node(bad, -1, {inv(0, 0, 0, "TAS", unit()), resp(0, 0, 1, num(0))});
  add_node(bad, broot, {inv(1, 1, 2, "TAS", unit()), resp(1, 1, 3, num(0))});
  auto res2 = verify::check_strong_linearizability(bad, spec);
  EXPECT_FALSE(res2.strongly_linearizable);
}

// Object filtering: foreign-object operations in the history are ignored.
TEST(StrongLinChecker, ObjectFilter) {
  ExecGraph tree;
  std::vector<Event> events = {inv(0, 0, 0, "ReadMax", unit()), resp(0, 0, 1, num(0))};
  Event foreign = inv(1, 1, 2, "Deq", unit());
  foreign.object = "other";
  events.push_back(foreign);
  add_node(tree, -1, events);
  verify::MaxRegisterSpec spec;
  verify::StrongLinOptions opts;
  opts.object = "obj";
  auto res = verify::check_strong_linearizability(tree, spec, opts);
  EXPECT_TRUE(res.strongly_linearizable) << res.report;
}

// Budget exhaustion is reported as undecided, never as a verdict.
TEST(StrongLinChecker, BudgetUndecided) {
  ExecGraph tree;
  int root = add_node(tree, -1, {inv(0, 0, 0, "Enq", num(1)), inv(1, 1, 1, "Enq", num(2))});
  add_node(tree, root, {resp(0, 0, 2, str("OK"))});
  verify::QueueSpec spec;
  verify::StrongLinOptions opts;
  opts.max_search_nodes = 1;
  auto res = verify::check_strong_linearizability(tree, spec, opts);
  EXPECT_FALSE(res.decided);
  EXPECT_FALSE(res.strongly_linearizable);
}

}  // namespace
}  // namespace c2sl
