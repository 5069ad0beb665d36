// Test&set base object (consensus number 2; Herlihy 1991).
//
// The paper distinguishes plain test&set (operations: test&set only) from
// *readable* test&set (adds read). The base object here is plain by default:
// read() enforces the readability capability so that constructions advertised
// as "from test&set" (Thm 5) cannot accidentally rely on reads. Lemma 16
// readability (read_object_state) is an orthogonal, system-level capability and
// remains available to algorithm B regardless.
//
// `max_participants` enforces the access restriction of t-process test&set
// (e.g. 2-process test&set in Thm 19): a C2SL_CHECK fires if more distinct
// processes than allowed ever apply test&set.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "sim/ctx.h"
#include "sim/world.h"
#include "util/assert.h"

namespace c2sl::prim {

class TestAndSet : public sim::SimObject {
 public:
  explicit TestAndSet(bool readable = false, int max_participants = -1)
      : readable_(readable), max_participants_(max_participants) {}

  /// Returns the previous state (0 exactly once) and sets the state to 1.
  int64_t test_and_set(sim::Ctx& ctx) {
    note_participant(ctx.self);
    ctx.gate(*this, "test&set");
    int64_t old = state_;
    state_ = 1;
    return old;
  }

  int64_t read(sim::Ctx& ctx) {
    C2SL_CHECK(readable_, "read() on a non-readable test&set: " + name());
    ctx.gate(*this, "read");
    return state_;
  }

  std::unique_ptr<sim::SimObject> clone() const override {
    auto c = std::make_unique<TestAndSet>(readable_, max_participants_);
    c->state_ = state_;
    c->participants_ = participants_;
    return c;
  }
  std::string state_string() const override { return std::to_string(state_); }
  void set_state_string(const std::string& s) override { state_ = std::stoll(s); }

  int64_t peek() const { return state_; }

 private:
  void note_participant(sim::ProcId p) {
    if (max_participants_ < 0) return;
    if (std::find(participants_.begin(), participants_.end(), p) != participants_.end())
      return;
    participants_.push_back(p);
    C2SL_CHECK(static_cast<int>(participants_.size()) <= max_participants_,
               "too many processes access " + std::to_string(max_participants_) +
                   "-process test&set: " + name());
  }

  int64_t state_ = 0;
  bool readable_;
  int max_participants_;
  std::vector<sim::ProcId> participants_;
};

}  // namespace c2sl::prim
