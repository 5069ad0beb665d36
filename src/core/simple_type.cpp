#include "core/simple_type.h"

#include <algorithm>
#include <set>

#include "util/assert.h"

namespace c2sl::core {

// ------------------------------------------------------------------ NodeArena

int64_t NodeArena::append(sim::Ctx& ctx, const STNode& node) {
  ctx.gate(*this, "append");
  nodes_.push_back(node);
  return static_cast<int64_t>(nodes_.size()) - 1;
}

STNode NodeArena::get(sim::Ctx& ctx, int64_t id) {
  ctx.gate(*this, "get(" + std::to_string(id) + ")");
  C2SL_ASSERT(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return nodes_[static_cast<size_t>(id)];
}

std::unique_ptr<sim::SimObject> NodeArena::clone() const {
  auto c = std::make_unique<NodeArena>();
  c->nodes_ = nodes_;
  return c;
}

namespace {
constexpr char kField = '\x1f';
constexpr char kRecord = '\x1e';
}  // namespace

std::string NodeArena::state_string() const {
  std::string out;
  for (const STNode& n : nodes_) {
    out += n.inv_name;
    out += kField;
    out += encode_val(n.inv_args);
    out += kField;
    out += std::to_string(n.proc);
    out += kField;
    out += encode_val(n.resp);
    out += kField;
    for (size_t i = 0; i < n.preceding.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(n.preceding[i]);
    }
    out += kRecord;
  }
  return out;
}

void NodeArena::set_state_string(const std::string& s) {
  nodes_.clear();
  size_t start = 0;
  while (start < s.size()) {
    size_t end = s.find(kRecord, start);
    if (end == std::string::npos) break;
    std::string rec = s.substr(start, end - start);
    start = end + 1;
    STNode node;
    std::vector<std::string> fields;
    size_t fstart = 0;
    for (int i = 0; i < 4; ++i) {
      size_t fend = rec.find(kField, fstart);
      C2SL_ASSERT(fend != std::string::npos);
      fields.push_back(rec.substr(fstart, fend - fstart));
      fstart = fend + 1;
    }
    fields.push_back(rec.substr(fstart));
    node.inv_name = fields[0];
    node.inv_args = decode_val(fields[1]);
    node.proc = std::stoi(fields[2]);
    node.resp = decode_val(fields[3]);
    size_t pstart = 0;
    const std::string& plist = fields[4];
    while (pstart < plist.size()) {
      size_t comma = plist.find(',', pstart);
      std::string tok = comma == std::string::npos ? plist.substr(pstart)
                                                   : plist.substr(pstart, comma - pstart);
      node.preceding.push_back(std::stoll(tok));
      if (comma == std::string::npos) break;
      pstart = comma + 1;
    }
    nodes_.push_back(std::move(node));
  }
}

// ----------------------------------------------------------- SimpleTypeObject

SimpleTypeObject::SimpleTypeObject(sim::World& world, const std::string& name, int n,
                                   const verify::Spec& spec, OverwritesFn overwrites)
    : name_(name), n_(n), spec_(spec), overwrites_(std::move(overwrites)) {
  owned_root_ = std::make_unique<SnapshotFAA>(world, name + ".root", n);
  root_ = owned_root_.get();
  arena_ = world.add<NodeArena>(name + ".arena");
}

SimpleTypeObject::SimpleTypeObject(sim::World& world, const std::string& name, int n,
                                   const verify::Spec& spec, OverwritesFn overwrites,
                                   SnapshotIface& root)
    : name_(name), n_(n), spec_(spec), overwrites_(std::move(overwrites)), root_(&root) {
  arena_ = world.add<NodeArena>(name + ".arena");
}

bool SimpleTypeObject::dominated(const STNode& a, const STNode& b) const {
  verify::Invocation ia{a.inv_name, a.inv_args, a.proc};
  verify::Invocation ib{b.inv_name, b.inv_args, b.proc};
  bool b_over_a = overwrites_(ia, ib);
  bool a_over_b = overwrites_(ib, ia);
  if (b_over_a && !a_over_b) return true;
  if (b_over_a && a_over_b) return a.proc < b.proc;
  return false;
}

Val SimpleTypeObject::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  // Line 12: view = root.scan().
  std::vector<int64_t> view = root_->scan(ctx);

  // Line 13: G = BFS over nodes reachable from the view (ids decrease along
  // `preceding` edges, so a worklist of unread ids terminates).
  NodeArena& arena = ctx.world->get(arena_);
  std::map<int64_t, STNode> graph;  // ordered: ascending id == topological order
  std::vector<int64_t> work;
  for (int64_t entry : view) {
    if (entry != 0) work.push_back(entry - 1);
  }
  while (!work.empty()) {
    int64_t id = work.back();
    work.pop_back();
    if (graph.count(id) != 0) continue;
    STNode node = arena.get(ctx, id);
    for (int64_t entry : node.preceding) {
      if (entry != 0 && graph.count(entry - 1) == 0) work.push_back(entry - 1);
    }
    graph.emplace(id, std::move(node));
  }

  // Line 14 + lingraph: start from the real-time order (edges preceding -> node;
  // ascending ids are one topological sort of it), add dominance edges where
  // they do not close a cycle, then Kahn-sort with min-id tie-breaking.
  std::vector<int64_t> ids;
  ids.reserve(graph.size());
  for (const auto& [id, node] : graph) ids.push_back(id);

  // adj[i][j] == true: edge ids[i] -> ids[j] (i before j).
  size_t k = ids.size();
  std::vector<std::vector<bool>> adj(k, std::vector<bool>(k, false));
  auto index_of = [&](int64_t id) {
    return static_cast<size_t>(std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  for (size_t j = 0; j < k; ++j) {
    const STNode& node = graph.at(ids[j]);
    for (int64_t entry : node.preceding) {
      if (entry == 0) continue;
      // Real-time order: every node reachable from `preceding` precedes node j;
      // direct edges suffice for the sort, transitivity is implied by ids.
      adj[index_of(entry - 1)][j] = true;
    }
  }
  // Transitive real-time order: any node in the graph with a smaller id that is
  // an ancestor. For cycle checks we work with reachability on the fly.
  auto reaches = [&](size_t from, size_t to) {
    if (from == to) return true;
    std::vector<size_t> stack = {from};
    std::vector<bool> seen(k, false);
    seen[from] = true;
    while (!stack.empty()) {
      size_t cur = stack.back();
      stack.pop_back();
      if (cur == to) return true;
      for (size_t nxt = 0; nxt < k; ++nxt) {
        if (adj[cur][nxt] && !seen[nxt]) {
          seen[nxt] = true;
          stack.push_back(nxt);
        }
      }
    }
    return false;
  };
  // Pseudocode lines 4-9 over the id-ascending topological sort.
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      const STNode& oi = graph.at(ids[i]);
      const STNode& oj = graph.at(ids[j]);
      if (dominated(oj, oi) && !reaches(j, i) && !adj[j][i]) {
        // o_i dominates o_j: o_j ordered before o_i unless that closes a cycle.
        if (!reaches(i, j)) adj[j][i] = true;
      }
      if (dominated(oi, oj) && !reaches(i, j) && !adj[i][j]) {
        if (!reaches(j, i)) adj[i][j] = true;
      }
    }
  }
  // Kahn topological sort, min-id first (deterministic).
  std::vector<size_t> indegree(k, 0);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      if (adj[a][b]) ++indegree[b];
    }
  }
  std::set<size_t> ready;
  for (size_t v = 0; v < k; ++v) {
    if (indegree[v] == 0) ready.insert(v);
  }
  std::vector<size_t> order;
  while (!ready.empty()) {
    size_t v = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(v);
    for (size_t w = 0; w < k; ++w) {
      if (adj[v][w] && --indegree[w] == 0) ready.insert(w);
    }
  }
  C2SL_ASSERT_MSG(order.size() == k, "lingraph produced a cycle");

  // Lines 15-19: replay S through the spec, then choose this invocation's
  // response so that S . inv . resp is valid.
  std::string state = spec_.initial();
  for (size_t v : order) {
    const STNode& node = graph.at(ids[v]);
    verify::Invocation i{node.inv_name, node.inv_args, node.proc};
    auto transitions = spec_.next(state, i);
    C2SL_ASSERT_MSG(!transitions.empty(), "spec rejected a published operation");
    // Prefer the transition matching the stored response (deterministic simple
    // types have exactly one transition anyway).
    const verify::Transition* chosen = &transitions[0];
    for (const verify::Transition& t : transitions) {
      if (t.resp == node.resp) {
        chosen = &t;
        break;
      }
    }
    state = chosen->state;
  }
  verify::Invocation own{inv.name, inv.args, ctx.self};
  auto own_transitions = spec_.next(state, own);
  C2SL_ASSERT_MSG(!own_transitions.empty(), "spec rejected invocation " + inv.name);
  Val resp = own_transitions[0].resp;

  // Lines 20-22: publish the node, then update root with its address.
  STNode e;
  e.inv_name = inv.name;
  e.inv_args = inv.args;
  e.proc = ctx.self;
  e.resp = resp;
  e.preceding = view;
  int64_t id = arena.append(ctx, e);
  root_->update(ctx, id + 1);
  return resp;
}

size_t SimpleTypeObject::graph_size(sim::Ctx& ctx) const {
  return ctx.world->get(const_cast<SimpleTypeObject*>(this)->arena_).size();
}

// ------------------------------------------------------------------ instances

namespace {

/// Any operation overwrites a pure read (a read never changes the state, so the
/// configuration after the second operation is unaffected).
bool is_read(const verify::Invocation& o, const char* read_name) {
  return o.name == read_name;
}

}  // namespace

std::unique_ptr<SimpleTypeObject> make_counter(sim::World& world, const std::string& name,
                                               int n, const verify::Spec& spec) {
  OverwritesFn fn = [](const verify::Invocation& o1, const verify::Invocation& o2) {
    (void)o2;
    return is_read(o1, "Read");  // Inc/Add/Read all overwrite Read; Incs commute
  };
  return std::make_unique<SimpleTypeObject>(world, name, n, spec, std::move(fn));
}

std::unique_ptr<SimpleTypeObject> make_max_register_st(sim::World& world,
                                                       const std::string& name, int n,
                                                       const verify::Spec& spec) {
  OverwritesFn fn = [](const verify::Invocation& o1, const verify::Invocation& o2) {
    if (is_read(o1, "ReadMax")) return true;  // WriteMax and ReadMax overwrite reads
    if (o1.name == "WriteMax" && o2.name == "WriteMax") {
      return as_num(o2.args) >= as_num(o1.args);  // §1: WriteMax(v1) overwrites
    }                                             // WriteMax(v2) iff v1 >= v2
    return false;
  };
  return std::make_unique<SimpleTypeObject>(world, name, n, spec, std::move(fn));
}

std::unique_ptr<SimpleTypeObject> make_union_set(sim::World& world, const std::string& name,
                                                 int n, const verify::Spec& spec) {
  OverwritesFn fn = [](const verify::Invocation& o1, const verify::Invocation& o2) {
    if (is_read(o1, "Has")) return true;
    if (o1.name == "Insert" && o2.name == "Insert") {
      return as_num(o1.args) == as_num(o2.args);  // same-element inserts idempotent
    }
    return false;
  };
  return std::make_unique<SimpleTypeObject>(world, name, n, spec, std::move(fn));
}

std::unique_ptr<SimpleTypeObject> make_logical_clock(sim::World& world,
                                                     const std::string& name, int n,
                                                     const verify::Spec& spec) {
  OverwritesFn fn = [](const verify::Invocation& o1, const verify::Invocation& o2) {
    if (is_read(o1, "Observe")) return true;
    if (o1.name == "Join" && o2.name == "Join") {
      return as_num(o2.args) >= as_num(o1.args);
    }
    return false;
  };
  return std::make_unique<SimpleTypeObject>(world, name, n, spec, std::move(fn));
}

}  // namespace c2sl::core
