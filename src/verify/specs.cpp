#include "verify/specs.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"

namespace c2sl::verify {

namespace {

std::vector<int64_t> parse_list(const std::string& s) {
  std::vector<int64_t> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoll(tok));
  }
  return out;
}

std::string render_list(const std::vector<int64_t>& xs) {
  std::string out;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(xs[i]);
  }
  return out;
}

const Val kOk = str("OK");
const Val kEmpty = str("EMPTY");

}  // namespace

std::vector<sim::OpRecord> operations_from_events(const std::vector<sim::Event>& events) {
  size_t op_count = 0;
  for (const sim::Event& e : events) {
    if (e.kind == sim::Event::Kind::kInvoke)
      op_count = std::max(op_count, static_cast<size_t>(e.op) + 1);
  }
  std::vector<sim::OpRecord> ops(op_count);
  for (const sim::Event& e : events) {
    switch (e.kind) {
      case sim::Event::Kind::kInvoke: {
        sim::OpRecord& r = ops[static_cast<size_t>(e.op)];
        r.id = e.op;
        r.proc = e.proc;
        r.object = e.object;
        r.name = e.name;
        r.args = e.payload;
        r.inv_seq = e.seq;
        break;
      }
      case sim::Event::Kind::kRespond: {
        sim::OpRecord& r = ops[static_cast<size_t>(e.op)];
        r.complete = true;
        r.resp = e.payload;
        r.resp_seq = e.seq;
        break;
      }
      default:
        break;
    }
  }
  return ops;
}

std::vector<sim::OpRecord> filter_object(const std::vector<sim::OpRecord>& ops,
                                         const std::string& object) {
  std::vector<sim::OpRecord> out;
  for (const sim::OpRecord& r : ops) {
    if (r.object == object) out.push_back(r);
  }
  return out;
}

// ---------------------------------------------------------------- max register

std::string MaxRegisterSpec::initial() const { return "0"; }

std::vector<Transition> MaxRegisterSpec::next(const std::string& state,
                                              const Invocation& inv) const {
  int64_t cur = std::stoll(state);
  if (inv.name == "WriteMax") {
    int64_t v = as_num(inv.args);
    return {{std::to_string(std::max(cur, v)), unit()}};
  }
  if (inv.name == "ReadMax") {
    return {{state, num(cur)}};
  }
  return {};
}

// -------------------------------------------------------------------- snapshot

std::string SnapshotSpec::initial() const {
  return render_list(std::vector<int64_t>(static_cast<size_t>(n_), 0));
}

std::vector<Transition> SnapshotSpec::next(const std::string& state,
                                           const Invocation& inv) const {
  std::vector<int64_t> view = parse_list(state);
  C2SL_ASSERT(static_cast<int>(view.size()) == n_);
  if (inv.name == "Update") {
    C2SL_ASSERT(inv.proc >= 0 && inv.proc < n_);
    view[static_cast<size_t>(inv.proc)] = as_num(inv.args);
    return {{render_list(view), unit()}};
  }
  if (inv.name == "Scan") {
    return {{state, vec(view)}};
  }
  return {};
}

// -------------------------------------------------------------- keyed snapshot

std::string KeyedSnapshotSpec::initial() const {
  return render_list(std::vector<int64_t>(static_cast<size_t>(2 * shards_), 0));
}

std::vector<Transition> KeyedSnapshotSpec::next(const std::string& state,
                                                const Invocation& inv) const {
  std::vector<int64_t> view = parse_list(state);
  C2SL_ASSERT(static_cast<int>(view.size()) == 2 * shards_);
  if (inv.name == "Inc") {
    int64_t s = as_num(inv.args);
    C2SL_ASSERT(s >= 0 && s < shards_);
    view[static_cast<size_t>(s)] += 1;
    return {{render_list(view), unit()}};
  }
  if (inv.name == "WriteMax") {
    int64_t p = as_num(inv.args);
    size_t s = static_cast<size_t>(p & 7);
    C2SL_ASSERT(static_cast<int>(s) < shards_);
    size_t slot = static_cast<size_t>(shards_) + s;
    view[slot] = std::max(view[slot], p >> 3);
    return {{render_list(view), unit()}};
  }
  if (inv.name == "Xfer") {
    int64_t p = as_num(inv.args);
    size_t from = static_cast<size_t>(p & 7);
    size_t to = static_cast<size_t>((p >> 3) & 7);
    C2SL_ASSERT(static_cast<int>(from) < shards_ && static_cast<int>(to) < shards_);
    view[from] -= p >> 6;
    view[to] += p >> 6;  // one transition: debit and credit are inseparable
    return {{render_list(view), unit()}};
  }
  if (inv.name == "Snap") {
    return {{state, vec(view)}};
  }
  return {};
}

// --------------------------------------------------------------------- counter

std::string CounterSpec::initial() const { return "0"; }

std::vector<Transition> CounterSpec::next(const std::string& state,
                                          const Invocation& inv) const {
  int64_t cur = std::stoll(state);
  if (inv.name == "Inc") return {{std::to_string(cur + 1), unit()}};
  if (inv.name == "Add") return {{std::to_string(cur + as_num(inv.args)), unit()}};
  if (inv.name == "Read") return {{state, num(cur)}};
  return {};
}

// --------------------------------------------------------------- logical clock

std::string LogicalClockSpec::initial() const { return "0"; }

std::vector<Transition> LogicalClockSpec::next(const std::string& state,
                                               const Invocation& inv) const {
  int64_t cur = std::stoll(state);
  if (inv.name == "Join") {
    return {{std::to_string(std::max(cur, as_num(inv.args))), unit()}};
  }
  if (inv.name == "Observe") {
    return {{state, num(cur)}};
  }
  return {};
}

// ------------------------------------------------------------------- union set

std::string UnionSetSpec::initial() const { return ""; }

std::vector<Transition> UnionSetSpec::next(const std::string& state,
                                           const Invocation& inv) const {
  std::vector<int64_t> items = parse_list(state);
  if (inv.name == "Insert") {
    int64_t x = as_num(inv.args);
    if (std::find(items.begin(), items.end(), x) == items.end()) {
      items.push_back(x);
      std::sort(items.begin(), items.end());
    }
    return {{render_list(items), unit()}};
  }
  if (inv.name == "Has") {
    int64_t x = as_num(inv.args);
    bool has = std::find(items.begin(), items.end(), x) != items.end();
    return {{state, num(has ? 1 : 0)}};
  }
  return {};
}

// -------------------------------------------------------------------- test&set

std::string TasSpec::initial() const { return "0"; }

std::vector<Transition> TasSpec::next(const std::string& state,
                                      const Invocation& inv) const {
  if (inv.name == "TAS") {
    return {{"1", num(state == "1" ? 1 : 0)}};
  }
  if (inv.name == "Read") {
    return {{state, num(state == "1" ? 1 : 0)}};
  }
  if (multi_shot_ && inv.name == "Reset") {
    return {{"0", unit()}};
  }
  return {};
}

// --------------------------------------------------------------- fetch&increment

std::string FaiSpec::initial() const { return "0"; }

std::vector<Transition> FaiSpec::next(const std::string& state,
                                      const Invocation& inv) const {
  int64_t cur = std::stoll(state);
  if (inv.name == "FAI") return {{std::to_string(cur + 1), num(cur)}};
  if (inv.name == "Read") return {{state, num(cur)}};
  return {};
}

// ------------------------------------------------------------------- set (§4.3)

std::string SetSpec::initial() const { return ""; }

std::vector<Transition> SetSpec::next(const std::string& state,
                                      const Invocation& inv) const {
  std::vector<int64_t> items = parse_list(state);
  if (inv.name == "Put") {
    int64_t x = as_num(inv.args);
    if (std::find(items.begin(), items.end(), x) == items.end()) {
      items.push_back(x);
      std::sort(items.begin(), items.end());
    }
    return {{render_list(items), kOk}};
  }
  if (inv.name == "Take") {
    if (items.empty()) return {{state, kEmpty}};
    std::vector<Transition> out;
    for (size_t i = 0; i < items.size(); ++i) {
      std::vector<int64_t> rest = items;
      int64_t x = rest[i];
      rest.erase(rest.begin() + static_cast<ptrdiff_t>(i));
      out.push_back({render_list(rest), num(x)});
    }
    return out;
  }
  return {};
}

// --------------------------------------------------------------- lane registry

std::string LaneRegistrySpec::initial() const { return ""; }

std::vector<Transition> LaneRegistrySpec::next(const std::string& state,
                                               const Invocation& inv) const {
  std::vector<int64_t> held = parse_list(state);
  if (inv.name == "Acquire") {
    std::vector<Transition> out;
    for (int64_t l = 0; l < max_lanes_; ++l) {
      if (std::find(held.begin(), held.end(), l) == held.end()) {
        std::vector<int64_t> now = held;
        now.push_back(l);
        std::sort(now.begin(), now.end());
        out.push_back({render_list(now), num(l)});
      }
    }
    if (static_cast<int64_t>(held.size()) == max_lanes_) {
      out.push_back({state, num(-1)});  // every lane held: "none free" allowed
    }
    return out;
  }
  if (inv.name == "Release") {
    int64_t l = as_num(inv.args);
    auto it = std::find(held.begin(), held.end(), l);
    if (it == held.end()) return {};  // releasing an unheld lane is illegal
    held.erase(it);
    return {{render_list(held), unit()}};
  }
  return {};
}

// ----------------------------------------------------------------------- queue

std::string QueueSpec::initial() const { return ""; }

std::vector<Transition> QueueSpec::next(const std::string& state,
                                        const Invocation& inv) const {
  std::vector<int64_t> items = parse_list(state);
  if (inv.name == "Enq") {
    items.push_back(as_num(inv.args));
    return {{render_list(items), kOk}};
  }
  if (inv.name == "Deq") {
    if (items.empty()) return {{state, kEmpty}};
    std::vector<Transition> out;
    size_t window = std::min<size_t>(items.size(), static_cast<size_t>(k_));
    for (size_t i = 0; i < window; ++i) {
      std::vector<int64_t> rest = items;
      int64_t x = rest[i];
      rest.erase(rest.begin() + static_cast<ptrdiff_t>(i));
      out.push_back({render_list(rest), num(x)});
    }
    return out;
  }
  return {};
}

// --------------------------------------------------------------- handoff queue

// State encoding: the list "head,w0,s0,w1,s1,..." in ticket order, where a
// waiter's status s is its delivered value (hand values are >= 0) or a marker.

namespace {
constexpr int64_t kWaiting = -1, kRevoked = -2, kCancelled = -3;
}  // namespace

std::string HandoffSpec::initial() const { return "0"; }

std::vector<Transition> HandoffSpec::next(const std::string& state,
                                          const Invocation& inv) const {
  std::vector<int64_t> st = parse_list(state);
  const size_t n = st.size() / 2;  // waiters
  auto status = [&](size_t i) -> int64_t& { return st[2 * i + 2]; };
  if (inv.name == "Hand") {
    size_t i = static_cast<size_t>(st[0]);
    while (i < n && status(i) == kCancelled) ++i;
    if (i < n) {
      status(i) = as_num(inv.args);
      st[0] = static_cast<int64_t>(i) + 1;
      return {{render_list(st), kOk}};
    }
    st[0] = static_cast<int64_t>(i);
    std::string alone = render_list(st);
    ++st[0];  // overshoot: the next ticket is revoked
    return {{alone, kEmpty}, {render_list(st), kEmpty}};
  }
  if (inv.name != "Enq" && inv.name != "Await" && inv.name != "Cancel") return {};
  const int64_t id = as_num(inv.args);
  size_t w = 0;
  while (w < n && st[2 * w + 1] != id) ++w;
  if (inv.name == "Enq") {
    if (w < n) return {};  // waiter ids are distinct
    st.push_back(id);
    st.push_back(static_cast<int64_t>(n) < st[0] ? kRevoked : kWaiting);
    return {{render_list(st), kOk}};
  }
  if (w == n) {
    if (inv.name == "Await") return {};
    return {{state, str("NONE")}};
  }
  const int64_t s = status(w);
  if (s == kWaiting || s == kCancelled) {
    if (inv.name == "Await") return {};  // enabled once decided
    status(w) = kCancelled;
    return {{render_list(st), str("CANCELLED")}};
  }
  return {{state, s == kRevoked ? str("REVOKED") : num(s)}};
}

// ----------------------------------------------------------------------- stack

std::string StackSpec::initial() const { return ""; }

std::vector<Transition> StackSpec::next(const std::string& state,
                                        const Invocation& inv) const {
  std::vector<int64_t> items = parse_list(state);  // back == top
  if (inv.name == "Push") {
    items.push_back(as_num(inv.args));
    return {{render_list(items), kOk}};
  }
  if (inv.name == "Pop") {
    if (items.empty()) return {{state, kEmpty}};
    int64_t x = items.back();
    items.pop_back();
    return {{render_list(items), num(x)}};
  }
  return {};
}

// ----------------------------------------------------- m-stuttering queue (§5)

// State encoding: "<enq_stutters>:<deq_stutters>:<items>". A counter tracks how
// many consecutive stutters of that operation type have happened; an operation
// may stutter only while its counter is < m, and taking effect resets it
// ("at least one out of m+1 consecutive operations of the same type is
// guaranteed to have effect").

std::string StutteringQueueSpec::initial() const { return "0:0:"; }

std::vector<Transition> StutteringQueueSpec::next(const std::string& state,
                                                  const Invocation& inv) const {
  size_t c1 = state.find(':');
  size_t c2 = state.find(':', c1 + 1);
  int ec = std::stoi(state.substr(0, c1));
  int dc = std::stoi(state.substr(c1 + 1, c2 - c1 - 1));
  std::vector<int64_t> items = parse_list(state.substr(c2 + 1));
  auto render = [](int e, int d, const std::vector<int64_t>& xs) {
    return std::to_string(e) + ":" + std::to_string(d) + ":" + render_list(xs);
  };
  if (inv.name == "Enq") {
    std::vector<Transition> out;
    std::vector<int64_t> pushed = items;
    pushed.push_back(as_num(inv.args));
    out.push_back({render(0, dc, pushed), kOk});  // takes effect
    if (ec < m_) out.push_back({render(ec + 1, dc, items), kOk});  // stutters
    return out;
  }
  if (inv.name == "Deq") {
    if (items.empty()) return {{state, kEmpty}};
    std::vector<Transition> out;
    std::vector<int64_t> rest(items.begin() + 1, items.end());
    out.push_back({render(ec, 0, rest), num(items.front())});  // takes effect
    if (dc < m_) out.push_back({render(ec, dc + 1, items), num(items.front())});
    return out;
  }
  return {};
}

}  // namespace c2sl::verify
