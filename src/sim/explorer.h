// Bounded exhaustive exploration of a scenario's executions.
//
// Strong linearizability is defined over the tree of executions (paper §2),
// but independent steps commute, so that tree repeats few states many times.
// The explorer builds its quotient: a node is a CONFIGURATION, keyed by
// Scheduler::configuration() (each process's status and the values its steps
// found), and a child whose key is already known becomes an edge to that
// node. Each edge keeps its own choice and events; each node keeps its first
// parent, so history_at and path_to return a representative execution. The
// checker (verify/strong_lin) consumes the graph; for_each_path walks it back
// out into every execution of the tree. The scenario is replayed once per
// edge (executions are deterministic functions of the choice sequence), up to
// a depth and a configuration budget. Every path to a configuration has the
// same length, so a node's depth is well defined.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/sim_run.h"

namespace c2sl::sim {

struct ExploreOptions {
  int max_depth = 32;          ///< maximum choice-sequence length BELOW the root
  size_t max_nodes = 100000;   ///< global configuration budget
  bool include_crashes = false;
  int max_crashes = 1;         ///< per-path crash budget when crashes included
  /// Guided exploration: fixed choice sequence applied before branching. The
  /// graph's root then represents the execution after `prefix`. Sound for
  /// refutations: a prefix-closure conflict inside any subtree of the full
  /// execution tree is a conflict of the full tree.
  std::vector<Choice> prefix;
};

struct ExecEdge {
  Choice choice;
  int to = -1;
  std::vector<Event> suffix;  ///< events appended on this edge
};

struct ExecNode {
  int id = 0;
  int parent = -1;              ///< first parent, on the representative path
  std::vector<ExecEdge> edges;  ///< one per scheduler choice explored here
  bool all_done = false;        ///< no process can move: finished, crashed or blocked
  bool truncated = false;       ///< edges omitted (depth or node budget hit)
  int depth = 0;
};

struct ExecGraph {
  std::vector<ExecNode> nodes;    ///< nodes[0] is the root (execution after prefix)
  std::vector<Event> root_events; ///< the history at the root, prefix included
  std::vector<Choice> prefix;     ///< guided-exploration prefix (usually empty)
  bool budget_exhausted = false;

  /// Adds a node reached from `parent` by `choice` (the root: parent -1, its
  /// events the root history) and returns its id.
  int add_node(int parent, Choice choice, std::vector<Event> suffix);
  /// History of node `id`'s representative execution: the root history, then
  /// the first-parent edges' events.
  std::vector<Event> history_at(int id) const;
  /// Choice sequence from the scenario start to node `id` (prefix included).
  std::vector<Choice> path_to(int id) const;
  size_t size() const { return nodes.size(); }

  /// Calls `f` once per path from the root, that is once per node of the
  /// execution tree, with the path's end node and its history. Op ids are
  /// renumbered in the path's invocation order and seq in its event order.
  using PathFn = std::function<void(const ExecNode&, const std::vector<Event>&)>;
  void for_each_path(const PathFn& f) const;

 private:
  const ExecEdge& in_edge(int id) const;  ///< the edge from id's first parent
  std::vector<const ExecEdge*> first_parent_edges(int id) const;
};

/// Explores all executions of `scenario` with `n` processes.
ExecGraph explore(int n, const ScenarioFn& scenario, const ExploreOptions& opts);

}  // namespace c2sl::sim
