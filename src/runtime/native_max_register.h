// Native (std::atomic) bounded variant of the §3.1 fetch&add max register.
//
// The simulated construction stores unbounded unary lanes in a BigInt register;
// real hardware fetch&add is 64-bit, so this variant packs n unary lanes of
// max_value bits each into one std::atomic<uint64_t> — faithful to the paper's
// algorithm for bounded parameters (n * max_value <= 63), and exactly the
// "narrow fetch&add" side of the §6 width discussion.
//
// Thread i owns global bits i, n+i, 2n+i, ...; only the owner adds to its lane
// bits, so fetch_add never carries across lanes. write_max of a non-larger
// value still issues fetch_add(0), mirroring the simulated algorithm (§3.1
// step 1).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

class NativeMaxRegister64 {
 public:
  NativeMaxRegister64(int n, int64_t max_value)
      : n_(n), max_value_(max_value), prev_(static_cast<size_t>(n)) {
    C2SL_CHECK(n > 0 && max_value >= 1, "need n >= 1 and max_value >= 1");
    // Compared by division: the product itself can overflow int64.
    C2SL_CHECK(max_value <= 63 / n, "n * max_value must fit in 63 bits");
  }

  void write_max(int proc, int64_t v) {
    C2SL_CHECK(proc >= 0 && proc < n_, "thread id out of range");
    C2SL_CHECK(v >= 0 && v <= max_value_, "value out of range");
    Cell& cell = prev_[static_cast<size_t>(proc)];
    uint64_t k = static_cast<uint64_t>(v);
    if (k <= cell.prev) {
      C2SL_TEL_PRIM_FAA();
      // c2sl-atomic: faa seq_cst — no-op FAA(0) is still the WriteMax step
      reg_.fetch_add(0, std::memory_order_seq_cst);
      return;
    }
    uint64_t delta = 0;
    for (uint64_t j = cell.prev; j < k; ++j) {
      delta |= uint64_t{1} << (j * static_cast<uint64_t>(n_) + static_cast<uint64_t>(proc));
    }
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — linearization point of WriteMax (§4 encoding)
    reg_.fetch_add(delta, std::memory_order_seq_cst);
    cell.prev = k;
  }

  int64_t read_max() {
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — FAA(0) atomically snapshots the whole word
    uint64_t snapshot = reg_.fetch_add(0, std::memory_order_seq_cst);
    int64_t best = 0;
    for (int i = 0; i < n_; ++i) {
      best = std::max(best, lane_value(snapshot, i));
    }
    return best;
  }

  int64_t lane_value(uint64_t snapshot, int i) const {
    int64_t v = 0;
    for (int64_t j = 0; j < max_value_; ++j) {
      uint64_t bit = static_cast<uint64_t>(j) * static_cast<uint64_t>(n_) +
                     static_cast<uint64_t>(i);
      if (snapshot & (uint64_t{1} << bit)) v = j + 1;
    }
    return v;
  }

 private:
  struct alignas(64) Cell {  // per-thread prevLocalMax, no false sharing
    uint64_t prev = 0;
  };

  int n_;
  int64_t max_value_;
  std::atomic<uint64_t> reg_{0};
  std::vector<Cell> prev_;
};

}  // namespace c2sl::rt
