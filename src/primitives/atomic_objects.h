// Hypothetical *atomic* high-level base objects: a max register and a snapshot
// whose operations are single steps. The paper phrases Theorem 6 over
// "(atomic) base objects readable test&set and max register" and Algorithm 1
// over an atomic snapshot; these objects realise that phrasing directly, and
// serve as ablation baselines against the implemented (multi-step) versions.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "sim/ctx.h"
#include "sim/world.h"
#include "util/assert.h"

namespace c2sl::prim {

class MaxRegObj : public sim::SimObject {
 public:
  explicit MaxRegObj(int64_t initial = 0) : value_(initial) {}

  void write_max(sim::Ctx& ctx, int64_t v) {
    ctx.gate(*this, "writeMax(" + std::to_string(v) + ")");
    value_ = std::max(value_, v);
  }

  int64_t read_max(sim::Ctx& ctx) {
    ctx.gate(*this, "readMax");
    return value_;
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    return std::make_unique<MaxRegObj>(value_);
  }
  std::string state_string() const override { return std::to_string(value_); }
  void set_state_string(const std::string& s) override { value_ = std::stoll(s); }

  int64_t peek() const { return value_; }

 private:
  int64_t value_;
};

class SnapshotObj : public sim::SimObject {
 public:
  explicit SnapshotObj(int n) : view_(static_cast<size_t>(n), 0) {}

  void update(sim::Ctx& ctx, int64_t v) {
    ctx.gate(*this, "update(" + std::to_string(v) + ")");
    C2SL_ASSERT(ctx.self >= 0 && static_cast<size_t>(ctx.self) < view_.size());
    view_[static_cast<size_t>(ctx.self)] = v;
  }

  std::vector<int64_t> scan(sim::Ctx& ctx) {
    ctx.gate(*this, "scan");
    return view_;
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    auto c = std::make_unique<SnapshotObj>(static_cast<int>(view_.size()));
    c->view_ = view_;
    return c;
  }
  std::string state_string() const override {
    std::string out;
    for (int64_t v : view_) {
      out += std::to_string(v);
      out += ',';
    }
    return out;
  }
  void set_state_string(const std::string& s) override {
    size_t idx = 0;
    size_t start = 0;
    while (start < s.size() && idx < view_.size()) {
      size_t comma = s.find(',', start);
      if (comma == std::string::npos) break;
      view_[idx++] = std::stoll(s.substr(start, comma - start));
      start = comma + 1;
    }
  }

 private:
  std::vector<int64_t> view_;
};

}  // namespace c2sl::prim
