// Fetch&add base objects (consensus number 2; Herlihy 1991).
//
// FetchAddBig is the register used by the paper's §3 constructions: its value
// is an arbitrary-precision integer, because the bit-interleaved encodings
// store one unbounded lane per process ("extremely large values in a single
// variable", §6). FetchAddInt is the familiar 64-bit flavour (wrap-around
// two's-complement), used by baselines such as the Herlihy–Wing queue.
#pragma once

#include <string>

#include "sim/ctx.h"
#include "sim/world.h"
#include "util/bigint.h"

namespace c2sl::prim {

class FetchAddBig : public sim::SimObject {
 public:
  explicit FetchAddBig(BigInt initial = BigInt()) : value_(std::move(initial)) {}

  /// Atomically adds `delta` (which may be negative, cf. posAdj − negAdj in
  /// §3.2) and returns the previous value.
  BigInt fetch_add(sim::Ctx& ctx, const BigInt& delta) {
    ctx.gate(*this, delta.is_zero() ? "fetch&add(0)" : "fetch&add(" + delta.to_hex() + ")");
    BigInt old = value_;
    value_ += delta;
    return old;
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    return std::make_unique<FetchAddBig>(value_);
  }
  std::string state_string() const override { return value_.to_hex(); }
  void set_state_string(const std::string& s) override { value_ = BigInt::from_hex(s); }

  const BigInt& peek() const { return value_; }

 private:
  BigInt value_;
};

class FetchAddInt : public sim::SimObject {
 public:
  explicit FetchAddInt(int64_t initial = 0) : value_(initial) {}

  int64_t fetch_add(sim::Ctx& ctx, int64_t delta) {
    ctx.gate(*this, "fetch&add(" + std::to_string(delta) + ")");
    int64_t old = value_;
    value_ = static_cast<int64_t>(static_cast<uint64_t>(value_) +
                                  static_cast<uint64_t>(delta));
    return old;
  }

  int64_t read(sim::Ctx& ctx) { return fetch_add(ctx, 0); }

  std::unique_ptr<sim::SimObject> clone() const override {
    return std::make_unique<FetchAddInt>(value_);
  }
  std::string state_string() const override { return std::to_string(value_); }
  void set_state_string(const std::string& s) override { value_ = std::stoll(s); }

  int64_t peek() const { return value_; }

 private:
  int64_t value_;
};

}  // namespace c2sl::prim
