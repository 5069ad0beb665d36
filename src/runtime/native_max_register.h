// The §3.1 fetch&add max register (Thm 1), bounded to one 64-bit word, as a
// view over the §3.2 snapshot word (runtime/native_snapshot.h).
//
// The simulated construction stores unbounded unary lanes in a BigInt register;
// real hardware fetch&add is 64-bit, so this variant keeps each lane in
// binary, in the snapshot's layout: lane i holds the largest value process i
// wrote, and the register holds max_value <= lane_max(n) (the "narrow
// fetch&add" side of the §6 width discussion). Each op is still one shared
// step, and two steps of the verbatim algorithm are refined away
// (docs/PROOFS.md, "The native refinements"): read_max is one seq_cst load
// instead of fetch_add(0), and a write_max at or below the lane's own last
// write takes no shared step at all (the paper calls that write's
// fetch_add(0) "not needed for correctness", §3.1). core::MaxRegisterFAA
// keeps the unary algorithm and both steps verbatim.
//
// Written once over a memory policy (runtime/native_mem.h): NativeMaxRegister64
// is the NativeMem instantiation (C2Store's MaxRef and its max digest), and the
// checker runs BasicMaxRegister64<sim::SimMem> directly and inside every
// service twin that holds a max register (service/sim_bridge.h).
#pragma once

#include <algorithm>
#include <cstdint>

#include "runtime/native_mem.h"
#include "runtime/native_snapshot.h"
#include "util/assert.h"

namespace c2sl::rt {

template <typename Mem>
class BasicMaxRegister64 {
 public:
  BasicMaxRegister64(int n, int64_t max_value) : lanes_(n), max_value_(max_value) {
    C2SL_CHECK(max_value >= 1 && max_value <= lane_max(n),
               "max_value must be in 1 .. lane_max(n)");
  }

  void write_max(int proc, int64_t v) {
    C2SL_CHECK(v >= 0 && v <= max_value_, "value out of range");
    // No shared step at or below the lane's own last write (its completed
    // FAA, or the initial 0): the op's effect and response are fixed at
    // invocation, its linearization point. Above it, the snapshot's one FAA.
    if (v > lanes_.last(proc)) lanes_.update(proc, v);
  }

  int64_t read_max() {
    int64_t m = 0;
    lanes_.scan_each([&](int, int64_t v) { m = std::max(m, v); });
    return m;
  }

 private:
  BasicSnapshot64<Mem> lanes_;
  int64_t max_value_;
};

using NativeMaxRegister64 = BasicMaxRegister64<NativeMem>;

}  // namespace c2sl::rt
