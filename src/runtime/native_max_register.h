// The §3.1 fetch&add max register (Thm 1), bounded to one 64-bit word, and
// the lane layout it shares with the §3.2 snapshot (runtime/native_snapshot.h).
//
// The simulated construction stores unbounded unary lanes in a BigInt register;
// real hardware fetch&add is 64-bit, so this variant packs n unary lanes of
// max_value bits each into one word — faithful to the paper's algorithm for
// bounded parameters (n * max_value <= 63), and exactly the "narrow
// fetch&add" side of the §6 width discussion. Two steps of the verbatim
// algorithm are refined away (docs/PROOFS.md, "The native refinements"):
// read_max is one seq_cst load instead of fetch_add(0), and a write_max at or
// below the lane's own last write takes no shared step at all (the paper
// calls that write's fetch_add(0) "not needed for correctness", §3.1).
// core::MaxRegisterFAA keeps both steps verbatim.
//
// Written once over a memory policy (runtime/native_mem.h): NativeMaxRegister64
// is the NativeMem instantiation (C2Store's MaxRef and its max digest), and the
// checker runs BasicMaxRegister64<sim::SimMem> directly and inside every
// service twin that holds a max register (service/sim_bridge.h).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "runtime/native_mem.h"
#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

/// The lane layout of the packed fetch&add words: bit j of lane i sits at bit
/// j*n + i. Only lane i's owner adds to its bits, so a fetch_add of
/// spread(next, i) - spread(prev, i) never carries or borrows across lanes:
/// the wrap-around arithmetic flips exactly the owner's bits.
struct LaneCodec {
  int n;     ///< lanes, one per process
  int bits;  ///< bits per lane (n * bits <= 64)

  /// The word bits of lane i holding `lane` (< 2^bits): one step per set bit.
  uint64_t spread(uint64_t lane, int i) const {
    uint64_t out = 0;
    for (; lane != 0; lane &= lane - 1) {
      out |= uint64_t{1} << (std::countr_zero(lane) * n + i);
    }
    return out;
  }
  /// Lane i of `word`.
  uint64_t extract(uint64_t word, int i) const {
    uint64_t lane = 0;
    for (int j = 0; j < bits; ++j) lane |= ((word >> (j * n + i)) & 1) << j;
    return lane;
  }
  /// The largest unary lane of `word`: its highest set bit is row j of some
  /// lane, and no lane holds more than j + 1.
  int64_t max_unary(uint64_t word) const { return (std::bit_width(word) + n - 1) / n; }
};

template <typename Mem>
class BasicMaxRegister64 {
 public:
  BasicMaxRegister64(int n, int64_t max_value)
      : lanes_{n, static_cast<int>(max_value)}, prev_(static_cast<size_t>(n)) {
    C2SL_CHECK(n > 0 && max_value >= 1, "need n >= 1 and max_value >= 1");
    // Compared by division: the product itself can overflow int64.
    C2SL_CHECK(max_value <= 63 / n, "n * max_value must fit in 63 bits");
  }

  void write_max(int proc, int64_t v) {
    C2SL_CHECK(proc >= 0 && proc < lanes_.n, "thread id out of range");
    C2SL_CHECK(v >= 0 && v <= lanes_.bits, "value out of range");
    Cell& cell = prev_[static_cast<size_t>(proc)];
    uint64_t k = static_cast<uint64_t>(v);
    // No shared step: the lane already holds k (its own completed FAA, or
    // the initial 0), so the op's effect and response are fixed at
    // invocation, its linearization point.
    if (k <= cell.prev) return;
    uint64_t raised = unary(k) ^ unary(cell.prev);  // unary bits prev .. k-1
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — linearization point of WriteMax (§4 encoding)
    reg_.fetch_add(lanes_.spread(raised, proc), std::memory_order_seq_cst);
    cell.prev = k;
  }

  int64_t read_max() {
    // c2sl-atomic: load seq_cst — linearization point of ReadMax: every
    // writer is a seq_cst FAA, so the load reads the last one before it in S
    return lanes_.max_unary(reg_.load(std::memory_order_seq_cst));
  }

 private:
  static uint64_t unary(uint64_t k) { return (uint64_t{1} << k) - 1; }  // k <= 63

  struct alignas(64) Cell {  // per-thread prevLocalMax, no false sharing
    uint64_t prev = 0;
  };

  LaneCodec lanes_;
  typename Mem::template Word<uint64_t> reg_{0};
  std::vector<Cell> prev_;
};

using NativeMaxRegister64 = BasicMaxRegister64<NativeMem>;

}  // namespace c2sl::rt
