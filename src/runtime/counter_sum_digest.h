// CounterSumDigest — a wait-free, strongly-linearizable SUM aggregate built
// from fetch&add only (no CAS), the counter analogue of the global-max digest
// word in service/c2store.h.
//
// The paper's §3.2 snapshot packs bounded per-process components into ONE
// fetch&add register so a scan is a single FAA(0) read — the whole point is
// that a multi-word collect cannot be strongly linearizable (the service's
// double-collect refutations, pinned in tests/service_sim_test.cpp, are the
// mechanised record). For a SUM the packing degenerates beautifully: addition
// is both the per-component update AND the cross-component combiner, so the
// per-lane components share one accumulator word outright — every
// counter_add contributes fetch_add(1) to the same 64-bit word, and the sum
// read is one fetch_add(0). Each operation is a single hardware atomic on the
// word, i.e. a fixed own-step linearization point, hence prefix-closed:
// strongly linearizable by construction. 63 bits of total bound the digest
// (~9.2e18 adds — not a reachable program state), so unlike the max digest
// there is no per-lane width budget to configure. Who produced the traffic is
// telemetry's business: each lane's counter_inc count is its op_counts cell
// (telemetry/telemetry.h).
//
// Cross-facet order, one level up: C2Store's CounterRef::inc writes the SHARD
// counter first and this digest second — the digest never runs ahead of the
// keyed read paths, mirroring (and pinned by the same sim tests as) the
// global-max digest contract. docs/PROOFS.md §"The counter-sum digest" gives
// the full argument.
#pragma once

#include <atomic>
#include <cstdint>

#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

class CounterSumDigest {
 public:
  CounterSumDigest() = default;

  /// One contribution; the fetch_add is the operation's linearization point
  /// (a fixed own-step). `lane` is checked but not stored: the total word is
  /// the whole digest.
  void add(int lane) {
    C2SL_CHECK(lane >= 0, "lane must be non-negative");
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — linearization point of add (fixed own-step)
    total_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// The digest read: one FAA(0) on the total word — wait-free, strongly
  /// linearizable (the §3.2 single-word-scan move, degenerate sum form).
  int64_t read() {
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — FAA(0) read IS the digest's atomic scan step
    return total_.fetch_add(0, std::memory_order_seq_cst);
  }

 private:
  /// On its own cache line: every counter inc FAAs it, so a neighbour (the
  /// store's max digest word, say) would share its ping-pong.
  alignas(64) std::atomic<int64_t> total_{0};
};

}  // namespace c2sl::rt
