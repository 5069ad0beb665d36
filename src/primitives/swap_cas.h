// Swap (consensus number 2) and compare&swap (consensus number infinity)
// base objects. CAS is deliberately present even though the paper's positive
// constructions avoid it: the baselines (Treiber stack, CAS queue) and the
// Lemma 12 positive experiments need a universal primitive to contrast with.
#pragma once

#include <string>

#include "sim/ctx.h"
#include "sim/world.h"
#include "util/value.h"

namespace c2sl::prim {

class SwapReg : public sim::SimObject {
 public:
  explicit SwapReg(Val initial = Val{}) : value_(std::move(initial)) {}

  /// Atomically replaces the value and returns the previous one.
  Val swap(sim::Ctx& ctx, Val v) {
    ctx.gate(*this, "swap(" + c2sl::to_string(v) + ")");
    Val old = std::move(value_);
    value_ = std::move(v);
    return old;
  }

  Val read(sim::Ctx& ctx) {
    ctx.gate(*this, "read");
    return value_;
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    return std::make_unique<SwapReg>(value_);
  }
  std::string state_string() const override { return encode_val(value_); }
  void set_state_string(const std::string& s) override { value_ = decode_val(s); }

  const Val& peek() const { return value_; }

 private:
  Val value_;
};

class CasReg : public sim::SimObject {
 public:
  explicit CasReg(Val initial = Val{}) : value_(std::move(initial)) {}

  /// Installs `desired` iff the current value equals `expected`; returns
  /// whether the installation happened.
  bool compare_and_swap(sim::Ctx& ctx, const Val& expected, Val desired) {
    ctx.gate(*this, "cas(" + c2sl::to_string(expected) + " -> " +
                         c2sl::to_string(desired) + ")");
    if (value_ == expected) {
      value_ = std::move(desired);
      return true;
    }
    return false;
  }

  Val read(sim::Ctx& ctx) {
    ctx.gate(*this, "read");
    return value_;
  }

  void write(sim::Ctx& ctx, Val v) {
    ctx.gate(*this, "write(" + c2sl::to_string(v) + ")");
    value_ = std::move(v);
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    return std::make_unique<CasReg>(value_);
  }
  std::string state_string() const override { return encode_val(value_); }
  void set_state_string(const std::string& s) override { value_ = decode_val(s); }

  const Val& peek() const { return value_; }

 private:
  Val value_;
};

}  // namespace c2sl::prim
