// Bounded exhaustive exploration of the execution tree of a scenario.
//
// A node is a finite execution (a choice sequence); its children extend it by
// one scheduler choice. The tree is the object over which strong
// linearizability is defined: a prefix-closed linearization function assigns a
// linearization to every node such that each node's value is a prefix of all of
// its children's values. The strong-linearizability checker (verify/strong_lin)
// consumes this tree.
//
// The explorer replays the scenario once per node (executions are deterministic
// functions of the choice sequence), records the events appended on each edge,
// and truncates at a depth or node budget.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sim_run.h"

namespace c2sl::sim {

struct ExploreOptions {
  int max_depth = 32;          ///< maximum choice-sequence length BELOW the root
  size_t max_nodes = 100000;   ///< global node budget
  bool include_crashes = false;
  int max_crashes = 1;         ///< per-path crash budget when crashes included
  /// Guided exploration: fixed choice sequence applied before branching. The
  /// tree's root then represents the execution after `prefix`. Sound for
  /// refutations: a prefix-closure conflict inside any subtree of the full
  /// execution tree is a conflict of the full tree.
  std::vector<Choice> prefix;
};

struct ExecNode {
  int id = 0;
  int parent = -1;
  Choice incoming;            ///< choice on the edge from parent (root: unset)
  std::vector<int> children;
  std::vector<Event> suffix;  ///< events appended relative to the parent node
  bool all_done = false;      ///< no process can move: finished, crashed or blocked
  bool truncated = false;     ///< children omitted (depth or node budget hit)
  int depth = 0;
};

struct ExecTree {
  std::vector<ExecNode> nodes;  ///< nodes[0] is the root (execution after prefix)
  std::vector<Choice> prefix;   ///< guided-exploration prefix (usually empty)
  bool budget_exhausted = false;

  /// Full event history at node `id` (concatenated suffixes from the root;
  /// the root suffix includes all prefix events).
  std::vector<Event> history_at(int id) const;
  /// Choice sequence from the scenario start to node `id` (prefix included).
  std::vector<Choice> path_to(int id) const;
  size_t size() const { return nodes.size(); }
};

/// Explores all executions of `scenario` with `n` processes.
ExecTree explore(int n, const ScenarioFn& scenario, const ExploreOptions& opts);

}  // namespace c2sl::sim
