#include "verify/strong_lin.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/assert.h"

namespace c2sl::verify {

namespace {

/// An op named by (process, per-process index). OpIds follow the global
/// invocation order, so they differ between paths into one configuration.
using OpKey = std::pair<sim::ProcId, int>;

/// One op of a node's configuration.
struct Op {
  OpKey key;
  const sim::Event* inv = nullptr;  // its invocation, on some edge of the graph
  bool tracked = false;             // on the object under check
  bool complete = false;
  Val resp;
};

/// An invocation or response of a tracked op on one edge, in edge order.
struct Mark {
  bool respond = false;
  OpKey key;
};

/// Adds `events`' invocations and responses to `ops`, the op table of the
/// node they start at, and returns the tracked ops' marks.
std::vector<Mark> apply(std::vector<Op>& ops, const std::vector<sim::Event>& events,
                        const std::string& object) {
  std::vector<Mark> marks;
  for (const sim::Event& e : events) {
    if (e.kind == sim::Event::Kind::kInvoke) {
      int idx = 0;
      for (const Op& op : ops) idx += op.key.first == e.proc ? 1 : 0;
      ops.push_back(Op{{e.proc, idx}, &e, object.empty() || e.object == object, false, {}});
      if (ops.back().tracked) marks.push_back(Mark{false, ops.back().key});
    } else if (e.kind == sim::Event::Kind::kRespond) {
      Op* open = nullptr;  // the process's innermost open op
      for (Op& op : ops) {
        if (op.key.first == e.proc && !op.complete) open = &op;
      }
      C2SL_ASSERT(open != nullptr);
      open->complete = true;
      open->resp = e.payload;
      if (open->tracked) marks.push_back(Mark{true, open->key});
    }
  }
  return marks;
}

/// A linearization under construction: ordered (op, response) pairs plus the
/// spec state reached after applying them.
struct Lin {
  std::vector<std::pair<OpKey, Val>> seq;
  std::string state;

  bool contains(OpKey key) const {
    return std::any_of(seq.begin(), seq.end(), [&](const auto& e) { return e.first == key; });
  }
};

class Checker {
 public:
  Checker(const sim::ExecGraph& graph, const Spec& spec, const StrongLinOptions& opts)
      : graph_(graph), spec_(spec), budget_(opts.max_search_nodes) {
    // Each edge's marks, and op tables along first parents (a first parent's
    // id is below its child's, so its table is ready first).
    const size_t n = graph_.nodes.size();
    tables_.resize(n);
    marks_.resize(n);
    root_marks_ = apply(tables_[0], graph_.root_events, opts.object);
    for (size_t v = 0; v < n; ++v) {
      for (const sim::ExecEdge& e : graph_.nodes[v].edges) {
        std::vector<Op> ops = tables_[v];
        marks_[v].push_back(apply(ops, e.suffix, opts.object));
        if (graph_.nodes[static_cast<size_t>(e.to)].parent == static_cast<int>(v)) {
          tables_[static_cast<size_t>(e.to)] = std::move(ops);
        }
      }
    }
  }

  StrongLinResult run() {
    StrongLinResult result;
    if (graph_.nodes.empty()) return result;
    Lin root;
    root.state = spec_.initial();
    bool ok = enter(0, root_marks_, root);
    result.decided = budget_ > 0;
    result.strongly_linearizable = ok && result.decided;
    if (!ok && result.decided) {
      result.witness_node = deepest_fail_;
      result.report = render_failure();
    }
    return result;
  }

 private:
  /// Enters node w by an edge with `marks`, carrying the source's
  /// linearization `base`: extends it into one of w's and solves below.
  bool enter(int w, const std::vector<Mark>& marks, const Lin& base) {
    bool ok = ext_dfs(w, marks, base);
    if (!ok) note_failure(w, base);
    return ok;
  }

  /// Backtracking search over ways to append operations of node w to `lin`.
  bool ext_dfs(int w, const std::vector<Mark>& marks, const Lin& lin) {
    if (budget_ == 0) return false;
    --budget_;
    const std::vector<Op>& ops = tables_[static_cast<size_t>(w)];

    // Response consistency: an op linearized earlier (while pending) must have
    // been given the response it actually returned by now.
    for (const auto& [key, resp] : lin.seq) {
      const Op* op = find(ops, key);
      if (op != nullptr && op->complete && !(op->resp == resp)) return false;
    }

    bool all_complete_in = true;
    for (const Op& op : ops) {
      if (op.tracked && op.complete && !lin.contains(op.key)) all_complete_in = false;
    }
    if (all_complete_in && solve_children(w, lin)) return true;

    // Real time, per edge: an op invoked on the edge may not precede an
    // unlinearized op that responded earlier on it. Ops invoked before the
    // edge are free: their predecessors were complete at the source, so
    // they are in `lin` already.
    std::vector<OpKey> blocked;
    bool after_response = false;
    for (const Mark& m : marks) {
      if (m.respond) {
        after_response |= !lin.contains(m.key);
      } else if (after_response) {
        blocked.push_back(m.key);
      }
    }
    for (const Op& op : ops) {
      if (!op.tracked || lin.contains(op.key)) continue;
      if (std::find(blocked.begin(), blocked.end(), op.key) != blocked.end()) continue;
      Invocation inv{op.inv->name, op.inv->payload, op.key.first};
      for (const Transition& t : spec_.next(lin.state, inv)) {
        if (op.complete && !(t.resp == op.resp)) continue;
        Lin next = lin;
        next.seq.emplace_back(op.key, t.resp);
        next.state = t.state;
        if (ext_dfs(w, marks, next)) return true;
      }
    }
    return false;
  }

  /// Every edge out of v must extend `lin`, which holds every op complete at
  /// v. What that asks depends only on v, the spec state and the pending ops
  /// `lin` already holds with their responses, so both verdicts are memoised
  /// on exactly that (docs/PROOFS.md, "Reading a checker verdict").
  bool solve_children(int v, const Lin& lin) {
    const std::vector<Op>& ops = tables_[static_cast<size_t>(v)];
    std::vector<std::pair<OpKey, std::string>> pending;
    for (const auto& [key, resp] : lin.seq) {
      if (!find(ops, key)->complete) pending.emplace_back(key, encode_val(resp));
    }
    std::sort(pending.begin(), pending.end());
    std::string memo_key = std::to_string(v) + '|' + lin.state + '|';
    for (const auto& [key, resp] : pending) {
      memo_key += std::to_string(key.first) + '.' + std::to_string(key.second) + '=' +
                  resp + ';';
    }
    if (auto it = memo_.find(memo_key); it != memo_.end()) return it->second;

    const sim::ExecNode& node = graph_.nodes[static_cast<size_t>(v)];
    bool ok = true;
    for (size_t i = 0; ok && i < node.edges.size(); ++i) {
      ok = enter(node.edges[i].to, marks_[static_cast<size_t>(v)][i], lin);
    }
    if (budget_ > 0) memo_.emplace(std::move(memo_key), ok);
    return ok;
  }

  static const Op* find(const std::vector<Op>& ops, OpKey key) {
    auto it = std::find_if(ops.begin(), ops.end(), [&](const Op& op) { return op.key == key; });
    return it == ops.end() ? nullptr : &*it;
  }

  void note_failure(int v, const Lin& lin) {
    int depth = graph_.nodes[static_cast<size_t>(v)].depth;
    if (depth >= deepest_fail_depth_) {
      deepest_fail_depth_ = depth;
      deepest_fail_ = v;
      deepest_fail_lin_ = lin.seq;
    }
  }

  std::string render_failure() const {
    if (deepest_fail_ < 0) return "no prefix-closed linearization function exists";
    // Ops print by their ids on the witness node's representative path.
    const std::vector<sim::Event> history = graph_.history_at(deepest_fail_);
    std::vector<Op> ops;
    apply(ops, history, "");
    std::string lin = "[";
    for (const auto& [key, resp] : deepest_fail_lin_) {
      if (lin.size() > 1) lin += ", ";
      lin += "op" + std::to_string(find(ops, key)->inv->op) + "->" + c2sl::to_string(resp);
    }
    std::string out =
        "no prefix-closed linearization function exists.\n"
        "Deepest conflicting node: " +
        std::to_string(deepest_fail_) + " (depth " + std::to_string(deepest_fail_depth_) +
        ")\nParent linearization that could not be extended: " + lin +
        "]\nHistory at that node:\n";
    for (const sim::Event& e : history) {
      out += "  " + sim::to_string(e) + "\n";
    }
    return out;
  }

  const sim::ExecGraph& graph_;
  const Spec& spec_;
  std::vector<std::vector<Op>> tables_;              // per node
  std::vector<std::vector<std::vector<Mark>>> marks_;  // per node, per edge
  std::vector<Mark> root_marks_;
  std::unordered_map<std::string, bool> memo_;
  size_t budget_;

  int deepest_fail_ = -1;
  int deepest_fail_depth_ = -1;
  std::vector<std::pair<OpKey, Val>> deepest_fail_lin_;
};

}  // namespace

StrongLinResult check_strong_linearizability(const sim::ExecGraph& graph, const Spec& spec,
                                             const StrongLinOptions& opts) {
  return Checker(graph, spec, opts).run();
}

}  // namespace c2sl::verify
