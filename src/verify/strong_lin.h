// Bounded model checker for STRONG linearizability (Golab–Higham–Woelfel).
//
// Definition (paper §2): an implementation is strongly linearizable if there is
// a function L mapping each execution to a linearization such that L is
// prefix-closed: if α is a prefix of β then L(α) is a prefix of L(β).
//
// Over a bounded execution graph (sim/explorer.h) this is decidable exactly:
// entering each node by each of its edges, extend the source's linearization
// into a valid one of the node's history, so that along every path the
// assignment grows by prefixes. The checker searches for such an assignment
// with backtracking. Ops are named by (process, per-process index), real-time
// order is taken per edge, and both verdicts are memoised per (node, spec
// state, pending ops already linearized with their responses): what a node
// still demands depends on nothing else (docs/PROOFS.md, "Reading a checker
// verdict").
//
//  * If the whole graph is explored (no truncation) and no assignment exists,
//    the implementation is NOT strongly linearizable, and the checker reports a
//    witness: a node whose every valid linearization fails in some extension.
//    This is how the library mechanically refutes strong linearizability of the
//    Herlihy–Wing queue and of the AADGMS snapshot (§1, §5 discussion).
//  * If an assignment exists, the implementation is strongly linearizable on
//    the explored executions — bounded evidence for the paper's positive
//    theorems (1, 2, 5, 6, 9, 10).
//
// Caveat: a truncated graph makes the positive verdict weaker (prefix-closure
// holds only as far as explored), while the negative verdict is always sound
// (a conflict in a subtree is a conflict in the whole tree — linearizations
// must already diverge there).
#pragma once

#include <string>

#include "sim/explorer.h"
#include "verify/spec.h"

namespace c2sl::verify {

struct StrongLinOptions {
  /// Backtracking-node budget; exceeding it yields decided == false.
  size_t max_search_nodes = 8'000'000;
  /// Check ops on this object only ("" == all ops in the history).
  std::string object;
};

struct StrongLinResult {
  bool strongly_linearizable = false;
  bool decided = true;
  /// Failure diagnostics: deepest node where every candidate assignment died.
  int witness_node = -1;
  std::string report;
};

StrongLinResult check_strong_linearizability(const sim::ExecGraph& graph, const Spec& spec,
                                             const StrongLinOptions& opts = {});

}  // namespace c2sl::verify
