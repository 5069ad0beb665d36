// The native runtime's one test&set cell and its one lazy-creation protocol.
//
//   * NativeReadableTAS (Thm 5): a readable test&set as one hardware byte.
//     Every native one-shot decision — fetch&increment and multishot cells,
//     NativeSet's taken flags, routing-epoch resize claims and the
//     PublishOnce claim below — is this cell.
//
//   * BasicPublishOnce<Mem, T>: an object created on first use by whichever
//     thread gets there first, built from that cell plus a register write
//     (§4.1's point: lazy creation needs one readable test&set and a pointer
//     store, never a CAS). get(make) runs
//
//         claim → construct → publish → (on throw) poison; losers spin
//
//     The claim winner CONSTRUCTS FIRST and PUBLISHES SECOND with a release
//     pointer store; losers spin on the pointer for as long as `make` runs.
//     Readers that must not allocate call peek(): one acquire load, never
//     constructs, nullptr until the publish. It is written once over a
//     memory policy `Mem` (runtime/native_mem.h); PublishOnce<T> is the
//     NativeMem instantiation.
//
// The init-before-publish order is load-bearing, not style: publishing first
// would let a concurrent reader observe uninitialised state (garbage that can
// masquerade as already-set cells, breaking even plain linearizability). The
// bounded model checker runs this class itself over sim::SimMem, with segment
// cells that start as garbage: it verifies strongly linearizable in
// publication order, and a test-local copy with the publish moved before the
// init is REFUTED (tests/service_sim_test.cpp). SegmentedArray segments and
// C2Store shard slots both publish through get(), so that verdict covers both
// (docs/PROOFS.md, "segment publication").
//
// A winner whose construction throws poisons the cell and rethrows; the claim
// is spent, so every later get() throws PreconditionError instead of spinning
// forever, and peek() stays nullptr (the checker pins this path too). No CAS
// anywhere — the no-CAS grep test (tests/c2store_test.cpp) scans this file.
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
/// by the cell, which frees it with `Delete`. `Align` pads the cell so
/// neighbouring cells in an array do not share a cache line (the publication
/// writes stay private to one line).
template <typename Mem, typename T, size_t Align = 64,
          typename Delete = std::default_delete<T>>
class alignas(Align) BasicPublishOnce {
 public:
  using Elem = std::remove_extent_t<T>;

  BasicPublishOnce() = default;
  BasicPublishOnce(const BasicPublishOnce&) = delete;
  BasicPublishOnce& operator=(const BasicPublishOnce&) = delete;
  ~BasicPublishOnce() {
    // c2sl-atomic: load relaxed — destructor runs single-threaded by contract
    Delete{}(obj_.load(std::memory_order_relaxed));
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
  /// std::unique_ptr<T, Delete>) if this call wins the claim. Only the winner
  /// runs `make`; losers spin until it publishes.
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
      std::unique_ptr<T, Delete> built;
      try {
        built = make();
      } catch (...) {
        // c2sl-atomic: store seq_cst — cold failure flag; cross-checked with
        // the pointer by spinning losers, so it stays at the strongest order
        poisoned_.store(true, std::memory_order_seq_cst);
        throw;
      }
      // c2sl-atomic: store release — the publish: the constructed object
      // becomes visible to every acquire load of the pointer
      obj_.store(built.get(), std::memory_order_release);
      return built.release();  // owned by the cell only once the store ran
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

  template <typename W>
  using Word = typename Mem::template Word<W>;

  BasicReadableTAS<Mem> claim_;  // one-shot: the construct-and-publish winner
  Word<bool> poisoned_{false};   // the winner threw before publishing
  Word<Elem*> obj_{nullptr};     // owning; published by a register write
};

template <typename T, size_t Align = 64, typename Delete = std::default_delete<T>>
using PublishOnce = BasicPublishOnce<NativeMem, T, Align, Delete>;

}  // namespace c2sl::rt
