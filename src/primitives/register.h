// Read/write register base object (consensus number 1).
#pragma once

#include <string>

#include "sim/ctx.h"
#include "sim/world.h"
#include "util/value.h"

namespace c2sl::prim {

/// Multi-writer multi-reader atomic register holding a Val.
class RWRegister : public sim::SimObject {
 public:
  explicit RWRegister(Val initial = Val{}) : value_(std::move(initial)) {}

  Val read(sim::Ctx& ctx) {
    ctx.gate(*this, "read");
    return value_;
  }

  void write(sim::Ctx& ctx, Val v) {
    ctx.gate(*this, "write(" + c2sl::to_string(v) + ")");
    value_ = std::move(v);
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    return std::make_unique<RWRegister>(value_);
  }
  std::string state_string() const override { return encode_val(value_); }
  void set_state_string(const std::string& s) override { value_ = decode_val(s); }

  /// Non-step peek for assertions and diagnostics only.
  const Val& peek() const { return value_; }

 private:
  Val value_;
};

}  // namespace c2sl::prim
