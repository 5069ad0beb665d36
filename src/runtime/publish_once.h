// The native runtime's one test&set cell and its one lazy-creation protocol.
//
//   * NativeReadableTAS (Thm 5): a readable test&set as one hardware byte.
//     Every native one-shot decision — fetch&increment and multishot cells,
//     NativeSet's taken flags, routing-epoch resize claims and the
//     PublishOnce claim below — is this cell.
//
//   * PublishOnce<T>: an object created on first use by whichever thread
//     gets there first, built from that cell plus a register write (§4.1's
//     point: lazy creation needs one readable test&set and a pointer store,
//     never a CAS). get(make) runs
//
//         claim → construct → publish → (on throw) poison; losers spin
//
//     The claim winner CONSTRUCTS FIRST and PUBLISHES SECOND with a release
//     pointer store; losers spin on the pointer (the winner is at most a few
//     stores away). Readers that must not allocate call peek(): one acquire
//     load, never constructs, nullptr until the publish.
//
// The init-before-publish order is load-bearing, not style: publishing first
// would let a concurrent reader observe uninitialised state (garbage that can
// masquerade as already-set cells, breaking even plain linearizability). The
// bounded model checker pins exactly this function: its simulated twin
// (svc::SimSegmentedTasArray, service/sim_bridge.h) verifies strongly
// linearizable in publication order and is REFUTED with the two writes swapped
// (tests/service_sim_test.cpp). SegmentedArray segments and C2Store shard
// slots both publish through get(), so that verdict covers both
// (docs/PROOFS.md, "segment publication").
//
// A winner whose construction throws poisons the cell and rethrows; the claim
// is spent, so every later get() throws PreconditionError instead of spinning
// forever, and peek() stays nullptr. No CAS anywhere — the no-CAS grep test
// (tests/c2store_test.cpp) scans this file.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "runtime/native_mem.h"
#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

/// Thm 5's readable test&set as one byte word. The paper adds a register
/// only because its test&set object cannot be read; a byte can, so each op
/// is one atomic step on it (docs/PROOFS.md). The sim keeps the paper's
/// two-object construction (core/readable_tas.h); BasicReadableTAS<SimMem>
/// is this cell under the checker.
template <typename Mem>
class BasicReadableTAS {
 public:
  /// Returns 0 to exactly one caller, then 1.
  int64_t test_and_set() {
    C2SL_TEL_PRIM_TAS();
    // c2sl-atomic: tas seq_cst — the winner decision; losers read the 1 too
    return bit_.exchange(1, std::memory_order_seq_cst);
  }

  // c2sl-atomic: load seq_cst — the readable-TAS read of the exchange byte
  int64_t read() const { return bit_.load(std::memory_order_seq_cst); }

 private:
  typename Mem::template Word<uint8_t> bit_{0};
};

using NativeReadableTAS = BasicReadableTAS<NativeMem>;

static_assert(sizeof(NativeReadableTAS) == 1,
              "a readable test&set cell is one byte: 64 per cache line");
static_assert(std::atomic<uint8_t>::is_always_lock_free,
              "the one-byte cell needs a lock-free hardware exchange");

/// A T (or, for T = U[], an array of U) created once on first use and owned
/// by the cell. `Align` pads the cell so neighbouring cells in an array do not
/// share a cache line (the publication writes stay private to one line).
template <typename T, size_t Align = 64>
class alignas(Align) PublishOnce {
 public:
  using Elem = std::remove_extent_t<T>;

  PublishOnce() = default;
  PublishOnce(const PublishOnce&) = delete;
  PublishOnce& operator=(const PublishOnce&) = delete;
  ~PublishOnce() {
    // c2sl-atomic: load relaxed — destructor runs single-threaded by contract
    std::default_delete<T>{}(obj_.load(std::memory_order_relaxed));
  }

  /// The published object, or nullptr. Never constructs. A nullptr means
  /// nothing was published yet, and this load is the atomic step that
  /// justifies reading it as "still in the initial state".
  Elem* peek() const {
    // c2sl-atomic: load acquire — publication read; a non-null pointer carries
    // visibility of everything its constructor wrote
    return obj_.load(std::memory_order_acquire);
  }

  /// The published object, constructed by `make` (returning
  /// std::unique_ptr<T>) if this call wins the claim. Only the winner runs
  /// `make`; losers spin until it publishes.
  template <typename Make>
  Elem* get(Make&& make) {
    if (Elem* p = peek()) return p;
    return claim_or_wait(make);
  }

 private:
  template <typename Make>
  Elem* claim_or_wait(Make& make) {
    if (claim_.test_and_set() == 0) {
      // Claim won: construct, THEN publish. Swapping these two steps is the
      // pinned-broken variant — see the header comment.
      std::unique_ptr<T> built;
      try {
        built = make();
      } catch (...) {
        // c2sl-atomic: store seq_cst — cold failure flag; cross-checked with
        // the pointer by spinning losers, so it stays at the strongest order
        poisoned_.store(true, std::memory_order_seq_cst);
        throw;
      }
      Elem* p = built.release();
      // c2sl-atomic: store release — the publish: the constructed object
      // becomes visible to every acquire load of the pointer
      obj_.store(p, std::memory_order_release);
      return p;
    }
    Elem* p = nullptr;
    while (!(p = peek())) {
      // c2sl-atomic: load seq_cst — cold poison check inside the loser spin
      C2SL_CHECK(!poisoned_.load(std::memory_order_seq_cst),
                 "lazy initialization failed: the claim winner's constructor "
                 "threw, so this object will never be published");
    }
    return p;
  }

  NativeReadableTAS claim_;           // one-shot: the construct-and-publish winner
  std::atomic<bool> poisoned_{false};  // the winner threw before publishing
  std::atomic<Elem*> obj_{nullptr};    // owning; published by a register write
};

}  // namespace c2sl::rt
