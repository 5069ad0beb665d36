// SegmentedArray<T> — the unbounded backing store of the native TAS family.
//
// The paper's §4 constructions are written against INFINITE arrays of base
// objects; only finitely many entries are touched in any finite run. The
// simulated side models that directly (prim::TasArray grows on demand inside
// one atomic step). The native side used to approximate it with fixed-capacity
// arrays, which leaked capacity knobs all the way up into C2StoreConfig and
// bounded the lifetime of every long-running store. This header removes that
// approximation: storage is a SPINE of lazily-published SEGMENTS with doubling
// sizes (base 64, so segment s holds 64·2^s cells and starts at 64·(2^s − 1)).
// 57 spine slots cover ~2^63 indices — "infinite" for every purpose of the
// paper, with no configuration surface.
//
// Publication uses the same pattern C2Store already uses for shard slots
// (service/c2store.h): each spine slot carries a one-shot claim implemented
// with a plain exchange (test&set — consensus number 2) and an atomic segment
// pointer (a read/write register — consensus number 1). The claim winner
// CONSTRUCTS THE SEGMENT FIRST (default-constructing every cell to its initial
// state) and PUBLISHES THE POINTER SECOND; losers spin on the pointer, readers
// that must not allocate treat an unpublished segment as "all cells initial"
// (peek() returns nullptr). No CAS anywhere — the no-CAS grep test
// (tests/c2store_test.cpp) scans this file.
//
// The init-before-publish order is load-bearing, not style: publishing first
// would let a concurrent reader observe uninitialised cells (garbage that can
// masquerade as already-set state, breaking even plain linearizability). The
// bounded model checker pins exactly this: the simulated twin of this protocol
// (svc::SimSegmentedTasArray, service/sim_bridge.h) verifies strongly
// linearizable in publication order and is REFUTED with the two writes
// swapped (tests/service_sim_test.cpp). docs/PROOFS.md gives the prose
// argument.
//
// Why doubling segments (and not, say, a linked list of fixed blocks): the
// spine stays small enough to sit inline (57 slots), index→segment is two bit
// operations, and a structure that grows to n cells publishes only O(log n)
// segments while wasting at most half of its allocation. (The fetch&increment
// search does not walk segments: it probes by index from its own certified
// frontier word — see NativeFetchIncrement in native_tas_family.h.)
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

template <typename T>
class SegmentedArray {
 public:
  /// Cells per segment 0; segment s holds kBase << s cells.
  static constexpr size_t kBase = 64;
  /// Spine length: segment 56 ends at 64·(2^57 − 1) − 1 ≈ 2^62.8, so the
  /// addressable index space is ~2^63 — exhausting it is not a reachable
  /// program state (a process touching one cell per nanosecond needs ~290
  /// years). There is deliberately NO capacity configuration.
  static constexpr int kMaxSegments = 57;

  SegmentedArray() = default;
  SegmentedArray(const SegmentedArray&) = delete;
  SegmentedArray& operator=(const SegmentedArray&) = delete;
  ~SegmentedArray() {
    for (auto& slot : spine_) {
      // c2sl-atomic: load relaxed — destructor runs single-threaded by contract
      delete[] slot.seg.load(std::memory_order_relaxed);
    }
  }

  // --- index math (static: shared with callers that walk segments) ----------
  static constexpr int segment_of(size_t i) {
    return std::bit_width(i / kBase + 1) - 1;
  }
  static constexpr size_t segment_start(int s) {
    return kBase * ((size_t{1} << s) - 1);
  }
  static constexpr size_t segment_size(int s) { return kBase << s; }
  static constexpr size_t segment_last(int s) {
    return segment_start(s) + segment_size(s) - 1;
  }

  /// Cell i, materialising its segment on demand (claim + construct + publish;
  /// losers spin on the pointer — the winner is at most a few stores away).
  T& cell(size_t i) {
    int s = checked_segment_of(i);
    // c2sl-atomic: load acquire — pairs with the release publish; a non-null
    // pointer carries visibility of every constructed cell behind it
    T* seg = spine_[s].seg.load(std::memory_order_acquire);
    if (!seg) seg = materialize(s);
    return seg[i - segment_start(s)];
  }

  /// Cell i if its segment is published, nullptr otherwise. Never allocates:
  /// an unpublished segment means every one of its cells is still in its
  /// initial state (any operation that mutates a cell publishes the segment
  /// first), so callers may treat nullptr as "initial value" — and the spine
  /// load itself is the atomic step that justifies that reading.
  const T* peek(size_t i) const {
    int s = checked_segment_of(i);
    // c2sl-atomic: load acquire — publication read; per-object coherence keeps
    // the nullptr ⇒ cells-initial reading sound without seq_cst
    const T* seg = spine_[s].seg.load(std::memory_order_acquire);
    return seg ? seg + (i - segment_start(s)) : nullptr;
  }
  T* peek(size_t i) {
    int s = checked_segment_of(i);
    // c2sl-atomic: load acquire — publication read (same argument as above)
    T* seg = spine_[s].seg.load(std::memory_order_acquire);
    return seg ? seg + (i - segment_start(s)) : nullptr;
  }

  /// Whether segment s is published (diagnostics and search loops).
  bool segment_published(int s) const {
    C2SL_CHECK(s >= 0 && s < kMaxSegments, "segment index out of spine range");
    // c2sl-atomic: load acquire — publication read (diagnostics and sweeps)
    return spine_[s].seg.load(std::memory_order_acquire) != nullptr;
  }
  /// Number of published segments (diagnostics only; racy by nature).
  int segments_published() const {
    int count = 0;
    for (int s = 0; s < kMaxSegments; ++s) {
      if (segment_published(s)) ++count;
    }
    return count;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> claim{0};       // one-shot exchange: init winner
    std::atomic<T*> seg{nullptr};        // published segment (register write)
    std::atomic<bool> poisoned{false};   // winner threw before publishing
  };

  /// segment_of with the spine-range check BEFORE any spine access: indices
  /// past segment 56 (> ~2^62.8) are not reachable by honest use, but they
  /// must surface as the documented checked error, not as an out-of-bounds
  /// spine read.
  static int checked_segment_of(size_t i) {
    int s = segment_of(i);
    C2SL_CHECK(s < kMaxSegments, "segmented spine exhausted (index beyond ~2^62)");
    return s;
  }

  T* materialize(int s) {
    Slot& slot = spine_[s];
    C2SL_TEL_PRIM_TAS();
    // c2sl-atomic: tas seq_cst — init-winner decision for the segment
    if (slot.claim.exchange(1, std::memory_order_seq_cst) == 0) {
      C2SL_TEL_EVENT(tel::TelEvent::kSegmentClaim);
      // Claim won: construct every cell to its initial state, THEN publish.
      // Swapping these two steps is the pinned-broken variant — see header.
      T* seg = nullptr;
      try {
        seg = new T[segment_size(s)]();
      } catch (...) {
        // c2sl-atomic: store seq_cst — cold failure flag; cross-checked with
        // the spine by spinning losers, so it stays at the strongest order
        slot.poisoned.store(true, std::memory_order_seq_cst);
        throw;
      }
      // c2sl-atomic: store release — the publish: constructed cells become
      // visible to every acquire spine load
      slot.seg.store(seg, std::memory_order_release);
      C2SL_TEL_EVENT(tel::TelEvent::kSegmentPublish);
      return seg;
    }
    T* seg = nullptr;
    // c2sl-atomic: load acquire — loser spin on the publish; pairs with the
    // release store above
    while (!(seg = slot.seg.load(std::memory_order_acquire))) {
      // c2sl-atomic: load seq_cst — cold poison check inside the spin
      C2SL_CHECK(!slot.poisoned.load(std::memory_order_seq_cst),
                 "segment initialization failed in another thread");
    }
    return seg;
  }

  Slot spine_[kMaxSegments];
};

}  // namespace c2sl::rt
