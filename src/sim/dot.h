// Graphviz export of execution graphs — tooling for inspecting checker
// counterexamples: the root shows the root history, each edge its choice and
// the events appended on it (an edge into an already-known configuration is
// dashed); highlighted nodes mark a checker-reported witness.
#pragma once

#include <string>

#include "sim/explorer.h"

namespace c2sl::sim {

struct DotOptions {
  /// Node to highlight (e.g. StrongLinResult::witness_node); -1 for none.
  int highlight_node = -1;
  /// Trim event labels to this many characters per line.
  size_t max_label_chars = 60;
};

/// Renders the graph in DOT format (pipe into `dot -Tsvg`).
std::string to_dot(const ExecGraph& graph, const DotOptions& opts = {});

}  // namespace c2sl::sim
