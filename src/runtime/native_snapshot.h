// The §3.2 fetch&add snapshot (Thm 2), bounded to one 64-bit word.
//
// n binary lanes of lane_bits each packed into one word (n * lane_bits <= 64)
// in the max register's lane layout (rt::LaneCodec,
// runtime/native_max_register.h). Update adds spread(new) − spread(old) in
// two's-complement; because the owner is the only writer of its lane bits,
// additions never carry and subtractions never borrow across lanes (same
// argument as the BigInt version). Scan is one seq_cst load of the word where
// the paper's is fetch_add(0) (docs/PROOFS.md, "The native refinements").
//
// Written once over a memory policy (runtime/native_mem.h): NativeSnapshot64
// is the NativeMem instantiation, and the checker runs
// BasicSnapshot64<sim::SimMem>.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/native_max_register.h"
#include "runtime/native_mem.h"
#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

template <typename Mem>
class BasicSnapshot64 {
 public:
  BasicSnapshot64(int n, int lane_bits)
      : lanes_{n, lane_bits}, prev_(static_cast<size_t>(n)) {
    C2SL_CHECK(n > 0 && lane_bits >= 1, "need n >= 1 and lane_bits >= 1");
    C2SL_CHECK(n * lane_bits <= 64, "n * lane_bits must fit in 64 bits");
  }

  /// 2^lane_bits - 1, capped at INT64_MAX: components are non-negative int64.
  int64_t max_component() const {
    return static_cast<int64_t>(~uint64_t{0} >> (64 - std::min(lanes_.bits, 63)));
  }

  void update(int proc, int64_t v) {
    C2SL_CHECK(proc >= 0 && proc < lanes_.n, "thread id out of range");
    C2SL_CHECK(v >= 0 && v <= max_component(), "component out of range");
    Cell& cell = prev_[static_cast<size_t>(proc)];
    uint64_t next = static_cast<uint64_t>(v);
    // Wraps safely: no lane but this one changes.
    uint64_t delta = lanes_.spread(next, proc) - lanes_.spread(cell.prev, proc);
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — linearization point of Update (§4 encoding)
    reg_.fetch_add(delta, std::memory_order_seq_cst);
    cell.prev = next;
  }

  std::vector<int64_t> scan() {
    // c2sl-atomic: load seq_cst — linearization point of Scan: every writer
    // is a seq_cst FAA, so the load reads the last one before it in S
    uint64_t snapshot = reg_.load(std::memory_order_seq_cst);
    std::vector<int64_t> view(static_cast<size_t>(lanes_.n));
    for (int i = 0; i < lanes_.n; ++i) {
      view[static_cast<size_t>(i)] = static_cast<int64_t>(lanes_.extract(snapshot, i));
    }
    return view;
  }

 private:
  struct alignas(64) Cell {
    uint64_t prev = 0;
  };

  LaneCodec lanes_;
  typename Mem::template Word<uint64_t> reg_{0};
  std::vector<Cell> prev_;
};

using NativeSnapshot64 = BasicSnapshot64<NativeMem>;

}  // namespace c2sl::rt
