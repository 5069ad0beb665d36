// Grow-on-demand arrays of base objects.
//
// The paper's §4 constructions use "infinite arrays" of test&set objects and of
// read/write registers. Only finitely many entries are touched in any finite
// execution, so the arrays grow on demand. Each array is modelled as ONE
// readable base object whose per-index operations are single steps; this is the
// granularity algorithm B (Lemma 12) reads at. An array of test&set objects is
// no stronger than its elements for consensus purposes (operations on distinct
// indices commute; operations on one index behave exactly like that element),
// so the consensus-number accounting of §5 is unaffected — see DESIGN.md.
#pragma once

#include <string>
#include <vector>

#include "sim/ctx.h"
#include "sim/world.h"
#include "util/assert.h"
#include "util/value.h"

namespace c2sl::prim {

/// Infinite array of test&set objects, each initially 0.
class TasArray : public sim::SimObject {
 public:
  explicit TasArray(bool readable = true) : readable_(readable) {}

  int64_t test_and_set(sim::Ctx& ctx, size_t idx) {
    ctx.gate(*this, "TS[" + std::to_string(idx) + "].test&set");
    ensure(idx);
    int64_t old = states_[idx];
    states_[idx] = 1;
    return old;
  }

  int64_t read(sim::Ctx& ctx, size_t idx) {
    C2SL_CHECK(readable_, "read() on non-readable test&set array: " + name());
    ctx.gate(*this, "TS[" + std::to_string(idx) + "].read");
    ensure(idx);
    return states_[idx];
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    auto c = std::make_unique<TasArray>(readable_);
    c->states_ = states_;
    return c;
  }
  std::string state_string() const override {
    std::string out;
    out.reserve(states_.size());
    for (uint8_t s : states_) out.push_back(s != 0 ? '1' : '0');
    return out;
  }
  void set_state_string(const std::string& s) override {
    states_.clear();
    for (char c : s) states_.push_back(c == '1' ? 1 : 0);
  }

  int64_t peek(size_t idx) const { return idx < states_.size() ? states_[idx] : 0; }

 private:
  void ensure(size_t idx) {
    if (idx >= states_.size()) states_.resize(idx + 1, 0);
  }

  bool readable_;
  std::vector<uint8_t> states_;
};

/// Infinite array of read/write registers, each initially bottom (unit Val).
class RegArray : public sim::SimObject {
 public:
  RegArray() = default;

  Val read(sim::Ctx& ctx, size_t idx) {
    ctx.gate(*this, "R[" + std::to_string(idx) + "].read");
    ensure(idx);
    return values_[idx];
  }

  void write(sim::Ctx& ctx, size_t idx, Val v) {
    ctx.gate(*this, "R[" + std::to_string(idx) + "].write(" + c2sl::to_string(v) + ")");
    ensure(idx);
    values_[idx] = std::move(v);
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    auto c = std::make_unique<RegArray>();
    c->values_ = values_;
    return c;
  }
  std::string state_string() const override {
    std::string out;
    for (const Val& v : values_) {
      out += encode_val(v);
      out += '|';
    }
    return out;
  }
  void set_state_string(const std::string& s) override {
    values_.clear();
    size_t start = 0;
    while (start < s.size()) {
      size_t bar = s.find('|', start);
      if (bar == std::string::npos) break;
      values_.push_back(decode_val(std::string_view(s).substr(start, bar - start)));
      start = bar + 1;
    }
  }

  Val peek(size_t idx) const { return idx < values_.size() ? values_[idx] : Val{}; }

 private:
  void ensure(size_t idx) {
    if (idx >= values_.size()) values_.resize(idx + 1, Val{});
  }

  std::vector<Val> values_;
};

/// Infinite array of swap registers (read/write/swap), each initially bottom.
/// Distinct from RegArray so that implementations advertised as register-only
/// cannot accidentally use swap.
class SwapRegArray : public sim::SimObject {
 public:
  SwapRegArray() = default;

  Val read(sim::Ctx& ctx, size_t idx) {
    ctx.gate(*this, "S[" + std::to_string(idx) + "].read");
    ensure(idx);
    return values_[idx];
  }

  void write(sim::Ctx& ctx, size_t idx, Val v) {
    ctx.gate(*this, "S[" + std::to_string(idx) + "].write(" + c2sl::to_string(v) + ")");
    ensure(idx);
    values_[idx] = std::move(v);
  }

  Val swap(sim::Ctx& ctx, size_t idx, Val v) {
    ctx.gate(*this, "S[" + std::to_string(idx) + "].swap(" + c2sl::to_string(v) + ")");
    ensure(idx);
    Val old = std::move(values_[idx]);
    values_[idx] = std::move(v);
    return old;
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    auto c = std::make_unique<SwapRegArray>();
    c->values_ = values_;
    return c;
  }
  std::string state_string() const override {
    std::string out;
    for (const Val& v : values_) {
      out += encode_val(v);
      out += '|';
    }
    return out;
  }
  void set_state_string(const std::string& s) override {
    values_.clear();
    size_t start = 0;
    while (start < s.size()) {
      size_t bar = s.find('|', start);
      if (bar == std::string::npos) break;
      values_.push_back(decode_val(std::string_view(s).substr(start, bar - start)));
      start = bar + 1;
    }
  }

 private:
  void ensure(size_t idx) {
    if (idx >= values_.size()) values_.resize(idx + 1, Val{});
  }

  std::vector<Val> values_;
};

}  // namespace c2sl::prim
