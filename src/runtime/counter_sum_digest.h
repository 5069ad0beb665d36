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
// per-lane components can share one accumulator word outright — every
// counter_add contributes fetch_add(1) to the same 64-bit word, and the sum
// read is one fetch_add(0). Each operation is a single hardware atomic on the
// word, i.e. a fixed own-step linearization point, hence prefix-closed:
// strongly linearizable by construction. 63 bits of total bound the digest
// (~9.2e18 adds — not a reachable program state), so unlike the max digest
// there is no per-lane width budget to configure.
//
// The per-lane components are still REAL and still per-lane: each lane also
// counts its own contributions in a private cell on a SegmentedArray spine
// (cache-line padded, published with the pinned claim-TAS → init →
// register-write pattern — see runtime/segmented_array.h). A lane has ONE
// writer at a time (the session that owns it; lane hand-offs go through the
// registry's seq_cst steps, which order one owner's writes before the next
// owner's), so the cell is a plain register — a relaxed load + store, no RMW.
// The cells are deliberately NOT on the sum read path — reading them one by
// one would be exactly the collect the checker refutes. They exist because the
// decomposition is useful anyway:
//   * diagnostics/introspection (who produced the traffic), exposed upward as
//     C2Store::lane_counter_adds();
//   * a testable conservation invariant: add() writes the OWN LANE CELL FIRST
//     and the total word second, so a read() followed by a pass over the
//     lanes sees
//         read() <= sum over lanes of lane_contribution(lane)
//     (the total never leads the components), with equality at quiescence.
//     The relaxed cell store needs no order of its own for this: it is
//     sequenced before the writer's seq_cst total FAA, every op on the total
//     is an RMW (so each add heads a release sequence every later read()
//     reads from), and read()'s FAA(0) therefore synchronizes with every add
//     it counts — each counted add's cell store happens-before the pass;
//   * the future shard-rebalancing item (ROADMAP) wants per-producer digests
//     whose migration can be replayed component-wise.
//
// Cross-facet order, one level up: C2Store's CounterRef::inc writes the SHARD
// counter first and this digest second — the digest never runs ahead of the
// keyed read paths, mirroring (and pinned by the same sim tests as) the
// global-max digest contract. docs/PROOFS.md §"The counter-sum digest" gives
// the full argument.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

class CounterSumDigest {
 public:
  CounterSumDigest() = default;

  /// One contribution from `lane`. Own lane cell first, total second: the
  /// total word never leads the per-lane components. The total fetch_add is
  /// the operation's linearization point (a fixed own-step). Precondition:
  /// no other thread adds through `lane` concurrently (one owner per lane).
  void add(int lane) {
    C2SL_CHECK(lane >= 0, "lane must be non-negative");
    std::atomic<int64_t>& c = lanes_.cell(static_cast<size_t>(lane)).v;
    // c2sl-atomic: store relaxed, load relaxed — single-writer lane cell; the
    // total FAA below releases it to every read() that counts this add
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
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

  /// Contributions recorded by `lane` (diagnostics; never on the sum path).
  /// An unpublished lane segment reads as 0 — the lane has never added.
  int64_t lane_contribution(int lane) const {
    C2SL_CHECK(lane >= 0, "lane must be non-negative");
    const LaneCell* c = lanes_.peek(static_cast<size_t>(lane));
    // c2sl-atomic: load relaxed — diagnostics-only; never feeds the sum path
    return c ? c->v.load(std::memory_order_relaxed) : 0;
  }

 private:
  /// Padded so neighbouring lanes never share a cache line (each cell is
  /// single-writer; the padding keeps the write path truly uncontended).
  /// Atomic only so the diagnostic reader is defined under TSAN.
  struct alignas(64) LaneCell {
    std::atomic<int64_t> v{0};
  };

  SegmentedArray<LaneCell> lanes_;
  std::atomic<int64_t> total_{0};
};

}  // namespace c2sl::rt
