// The §3.2 fetch&add snapshot (Thm 2), bounded to one 64-bit word, in the
// lane layout every packed fetch&add word shares: the Thm 1 max register
// (runtime/native_max_register.h) is a view over this snapshot.
//
// Lane i is the contiguous binary field at bits [i·w, (i+1)·w), w = 64 / n,
// holding 0 .. lane_max(n). Update adds (new − old) << i·w in two's
// complement; the owner is the only writer of its field, so additions never
// carry and subtractions never borrow across lanes (same argument as the
// BigInt version). Scan is one seq_cst load of the word where the paper's is
// fetch_add(0) (docs/PROOFS.md, "The native refinements").
//
// Written once over a memory policy (runtime/native_mem.h): NativeSnapshot64
// is the NativeMem instantiation, and the checker runs
// BasicSnapshot64<sim::SimMem>.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/native_mem.h"
#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

/// The packing bound of the packed fetch&add words: the largest value one of
/// n lanes holds, 2^(64/n) − 1, capped at INT64_MAX (lanes hold non-negative
/// int64). The max register's values, the snapshot's components and the
/// multi-shot test&set's generations are all bounded by it.
inline int64_t lane_max(int n) {
  C2SL_CHECK(n >= 1 && n <= 64, "need 1 to 64 lanes in one 64-bit word");
  return static_cast<int64_t>(~uint64_t{0} >> (64 - std::min(64 / n, 63)));
}

template <typename Mem>
class BasicSnapshot64 {
 public:
  explicit BasicSnapshot64(int n)
      : max_(lane_max(n)), n_(n), width_(64 / n), prev_(static_cast<size_t>(n)) {}

  void update(int proc, int64_t v) {
    C2SL_CHECK(v >= 0 && v <= max_, "component out of range");
    uint64_t& prev = own(proc);
    uint64_t next = static_cast<uint64_t>(v);
    // Wraps safely: no lane but this one changes.
    uint64_t delta = (next - prev) << (proc * width_);
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — linearization point of Update (§4 encoding)
    reg_.fetch_add(delta, std::memory_order_seq_cst);
    prev = next;
  }

  /// What `proc`'s lane holds: its own last update (only it writes there).
  int64_t last(int proc) { return static_cast<int64_t>(own(proc)); }

  /// One scan, each lane handed to f(lane, component) with no allocation.
  template <typename F>
  void scan_each(F&& f) {
    // c2sl-atomic: load seq_cst — linearization point of Scan: every writer
    // is a seq_cst FAA, so the load reads the last one before it in S
    uint64_t word = reg_.load(std::memory_order_seq_cst);
    for (int i = 0; i < n_; ++i) {
      f(i, static_cast<int64_t>((word >> (i * width_)) & static_cast<uint64_t>(max_)));
    }
  }

  std::vector<int64_t> scan() {
    std::vector<int64_t> view(static_cast<size_t>(n_));
    scan_each([&](int i, int64_t v) { view[static_cast<size_t>(i)] = v; });
    return view;
  }

 private:
  struct alignas(64) Cell {
    uint64_t prev = 0;
  };

  uint64_t& own(int proc) {
    C2SL_CHECK(proc >= 0 && proc < n_, "thread id out of range");
    return prev_[static_cast<size_t>(proc)].prev;
  }

  int64_t max_;  // checks n first; also the lane mask
  int n_;
  int width_;
  typename Mem::template Word<uint64_t> reg_{0};
  std::vector<Cell> prev_;
};

using NativeSnapshot64 = BasicSnapshot64<NativeMem>;

}  // namespace c2sl::rt
