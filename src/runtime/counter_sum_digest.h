// CounterSumDigest — a wait-free, strongly-linearizable SUM aggregate built
// from fetch&add only (no CAS), the counter analogue of the global-max digest
// word in service/c2store.h.
//
// The paper's §3.2 snapshot packs per-process components into ONE fetch&add
// register so a scan is a single FAA(0) read (a multi-word collect cannot be
// strongly linearizable: tests/service_sim_test.cpp pins the refutations).
// For a SUM the packing degenerates: addition is both the per-component
// update and the combiner, so every lane shares one word — each add is
// fetch_add(1), the read one fetch_add(0), each a fixed own-step
// linearization point. 63 bits bound the total (~9.2e18 adds), so there is no
// per-lane width budget. Per-lane counts are telemetry's (its counter_inc
// cells).
//
// Cross-facet order: CounterRef::inc writes the SHARD counter first and this
// digest second, so the digest never runs ahead of the keyed reads (pinned by
// the sim tests; docs/PROOFS.md, "The counter-sum digest").
//
// Written over a memory policy (runtime/native_mem.h): CounterSumDigest is the
// NativeMem instantiation, and the checker's aggregate twin
// (svc::SimShardedCounter) holds the SimMem one as its digest.
#pragma once

#include <cstdint>

#include "runtime/native_mem.h"
#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

template <typename Mem>
class BasicCounterSumDigest {
 public:
  BasicCounterSumDigest() = default;

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
  alignas(64) typename Mem::template Word<int64_t> total_{0};
};

using CounterSumDigest = BasicCounterSumDigest<NativeMem>;

}  // namespace c2sl::rt
