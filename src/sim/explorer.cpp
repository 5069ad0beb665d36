#include "sim/explorer.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

#include "util/assert.h"

namespace c2sl::sim {

int ExecGraph::add_node(int parent, Choice choice, std::vector<Event> suffix) {
  ExecNode node;
  node.id = static_cast<int>(nodes.size());
  node.parent = parent;
  if (parent == -1) {
    root_events = std::move(suffix);
  } else {
    ExecNode& from = nodes[static_cast<size_t>(parent)];
    node.depth = from.depth + 1;
    from.edges.push_back(ExecEdge{choice, node.id, std::move(suffix)});
  }
  nodes.push_back(std::move(node));
  return nodes.back().id;
}

const ExecEdge& ExecGraph::in_edge(int id) const {
  const ExecNode& node = nodes[static_cast<size_t>(id)];
  C2SL_ASSERT(node.parent != -1);
  for (const ExecEdge& e : nodes[static_cast<size_t>(node.parent)].edges) {
    if (e.to == id) return e;
  }
  C2SL_ASSERT_MSG(false, "a node's first parent has no edge to it");
  return nodes[0].edges[0];
}

std::vector<const ExecEdge*> ExecGraph::first_parent_edges(int id) const {
  std::vector<const ExecEdge*> out;
  for (int cur = id; nodes[static_cast<size_t>(cur)].parent != -1;
       cur = nodes[static_cast<size_t>(cur)].parent) {
    out.push_back(&in_edge(cur));
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Event> ExecGraph::history_at(int id) const {
  std::vector<Event> out = root_events;
  for (const ExecEdge* e : first_parent_edges(id)) {
    out.insert(out.end(), e->suffix.begin(), e->suffix.end());
  }
  return out;
}

std::vector<Choice> ExecGraph::path_to(int id) const {
  std::vector<Choice> out = prefix;
  for (const ExecEdge* e : first_parent_edges(id)) out.push_back(e->choice);
  return out;
}

void ExecGraph::for_each_path(const PathFn& f) const {
  if (nodes.empty()) return;
  struct Walk {
    const ExecGraph& g;
    const PathFn& f;
    std::vector<Event> history;
    std::map<ProcId, std::vector<OpId>> open;  // per process, innermost last
    OpId next_op = 0;

    void append(const std::vector<Event>& events) {
      for (Event e : events) {
        e.seq = history.size();
        if (e.kind == Event::Kind::kInvoke) {
          e.op = next_op++;
          open[e.proc].push_back(e.op);
        } else if (e.kind == Event::Kind::kRespond) {
          std::vector<OpId>& ops = open[e.proc];
          C2SL_ASSERT(!ops.empty());
          e.op = ops.back();
          ops.pop_back();
        }
        history.push_back(std::move(e));
      }
    }

    void visit(int id) {
      const ExecNode& node = g.nodes[static_cast<size_t>(id)];
      f(node, history);
      for (const ExecEdge& edge : node.edges) {
        const size_t len = history.size();
        const OpId ops = next_op;
        auto saved = open;
        append(edge.suffix);
        visit(edge.to);
        history.resize(len);
        next_op = ops;
        open = std::move(saved);
      }
    }
  };
  Walk walk{*this, f, {}, {}, 0};
  walk.append(root_events);
  walk.visit(0);
}

namespace {

/// Replays `path` on a fresh SimRun and reports the configuration it reaches.
struct ReplayResult {
  std::vector<Event> events;
  std::vector<ProcId> runnable;
  std::string key;  // Scheduler::configuration()
};

ReplayResult replay(int n, const ScenarioFn& scenario, const std::vector<Choice>& path) {
  ReplayResult res;
  SimRun run(n);
  scenario(run);
  for (const Choice& c : path) run.sched.apply(c);
  res.events = run.history.events();
  res.runnable = run.sched.runnable();
  res.key = run.sched.configuration();
  return res;
}

}  // namespace

ExecGraph explore(int n, const ScenarioFn& scenario, const ExploreOptions& opts) {
  ExecGraph graph;
  graph.prefix = opts.prefix;

  // Per node, what its one replay found: the processes that can move and the
  // history length there.
  std::vector<std::pair<std::vector<ProcId>, size_t>> reached;
  std::unordered_map<std::string, int> index;  // configuration -> node
  auto tail = [](const std::vector<Event>& events, size_t from) {
    return std::vector<Event>(events.begin() + static_cast<ptrdiff_t>(from), events.end());
  };
  auto add = [&](int parent, Choice c, ReplayResult&& r, size_t parent_events) {
    int id = graph.add_node(parent, c, tail(r.events, parent_events));
    graph.nodes.back().all_done = r.runnable.empty();
    index.emplace(std::move(r.key), id);
    reached.emplace_back(std::move(r.runnable), r.events.size());
    return id;
  };

  // Depth-first expansion. Each configuration is replayed once, when first
  // reached; a later path to it costs one replay and adds one edge.
  std::vector<int> stack = {add(-1, Choice{}, replay(n, scenario, opts.prefix), 0)};
  while (!stack.empty()) {
    ExecNode& node = graph.nodes[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (node.all_done) continue;
    if (node.depth >= opts.max_depth) {
      node.truncated = true;
      continue;
    }
    const int id = node.id;
    const auto [runnable, here] = reached[static_cast<size_t>(id)];
    const std::vector<Choice> path = graph.path_to(id);
    const auto below_root = path.begin() + static_cast<ptrdiff_t>(opts.prefix.size());
    const auto crashes = std::count_if(below_root, path.end(), [](Choice c) { return c.crash; });
    std::vector<Choice> branches;
    for (ProcId p : runnable) branches.push_back(Choice{p, false});
    if (opts.include_crashes && crashes < opts.max_crashes && runnable.size() > 1) {
      for (ProcId p : runnable) branches.push_back(Choice{p, true});
    }

    for (const Choice& c : branches) {
      std::vector<Choice> child_path = path;
      child_path.push_back(c);
      ReplayResult child = replay(n, scenario, child_path);
      if (auto known = index.find(child.key); known != index.end()) {
        const ExecNode& to = graph.nodes[static_cast<size_t>(known->second)];
        ExecNode& at = graph.nodes[static_cast<size_t>(id)];
        C2SL_ASSERT_MSG(to.depth == at.depth + 1,
                        "two paths of different lengths reach one configuration");
        at.edges.push_back(ExecEdge{c, to.id, tail(child.events, here)});
      } else if (graph.nodes.size() >= opts.max_nodes) {
        graph.budget_exhausted = true;
        graph.nodes[static_cast<size_t>(id)].truncated = true;
        break;
      } else {
        stack.push_back(add(id, c, std::move(child), here));
      }
    }
  }
  return graph;
}

}  // namespace c2sl::sim
