#include "sim/dot.h"

#include "sim/history.h"

namespace c2sl::sim {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string label(std::string head, const std::vector<Event>& events, size_t max_chars) {
  for (const Event& e : events) {
    std::string line = to_string(e);
    if (line.size() > max_chars) line = line.substr(0, max_chars) + "...";
    head += "\\n" + escape(line);
  }
  return head;
}

}  // namespace

std::string to_dot(const ExecGraph& graph, const DotOptions& opts) {
  std::string out = "digraph exec_graph {\n  node [shape=box, fontsize=9];\n";
  for (const ExecNode& node : graph.nodes) {
    std::string head = "#" + std::to_string(node.id);
    if (node.all_done) head += " (done)";
    if (node.truncated) head += " (truncated)";
    const std::vector<Event> none;
    out += "  n" + std::to_string(node.id) + " [label=\"" +
           label(head, node.id == 0 ? graph.root_events : none, opts.max_label_chars) + "\"";
    if (node.id == opts.highlight_node) {
      out += ", style=filled, fillcolor=salmon";
    } else if (node.all_done) {
      out += ", style=filled, fillcolor=palegreen";
    }
    out += "];\n";
  }
  for (const ExecNode& node : graph.nodes) {
    for (const ExecEdge& edge : node.edges) {
      std::string head = "p" + std::to_string(edge.choice.proc);
      if (edge.choice.crash) head += " CRASH";
      out += "  n" + std::to_string(node.id) + " -> n" + std::to_string(edge.to) +
             " [label=\"" + label(head, edge.suffix, opts.max_label_chars) + "\", fontsize=8";
      if (graph.nodes[static_cast<size_t>(edge.to)].parent != node.id) out += ", style=dashed";
      out += "];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace c2sl::sim
