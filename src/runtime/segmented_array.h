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
// Each spine slot is an rt::PublishOnce<T[]> (runtime/publish_once.h): the
// winner of the slot's readable test&set (consensus number 2) CONSTRUCTS THE
// SEGMENT FIRST (value-initialising every cell to its initial state) and
// PUBLISHES THE POINTER SECOND (a register write, consensus number 1); losers
// spin on the pointer, and readers that must not allocate treat an
// unpublished segment as "all cells initial" (peek() returns nullptr). C2Store
// shard slots publish through the same function, so the checker verdict on
// its init-before-publish order (rt::BasicPublishOnce over sim::SimMem, pinned
// in tests/service_sim_test.cpp; prose in docs/PROOFS.md) covers both. No CAS
// anywhere — the no-CAS grep test (tests/c2store_test.cpp) scans this file.
//
// Why doubling segments (and not, say, a linked list of fixed blocks): the
// spine stays small enough to sit inline (57 slots), index→segment is two bit
// operations, and a structure that grows to n cells publishes only O(log n)
// segments while wasting at most half of its allocation. (The fetch&increment
// search does not walk segments: it probes by index from its own certified
// frontier word — see NativeFetchIncrement in native_tas_family.h.)
#pragma once

#include <bit>
#include <cstddef>
#include <memory>

#include "runtime/publish_once.h"
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
    T* seg = spine_[s].get([s] {
      C2SL_TEL_EVENT(tel::TelEvent::kSegmentClaim);
      auto cells = std::make_unique<T[]>(segment_size(s));  // value-initialised
      C2SL_TEL_EVENT(tel::TelEvent::kSegmentPublish);  // the publish follows
      return cells;
    });
    return seg[i - segment_start(s)];
  }

  /// Cell i if its segment is published, nullptr otherwise. Never allocates:
  /// an unpublished segment means every one of its cells is still in its
  /// initial state (any operation that mutates a cell publishes the segment
  /// first), so callers may treat nullptr as "initial value" — and the spine
  /// load itself is the atomic step that justifies that reading.
  const T* peek(size_t i) const {
    int s = checked_segment_of(i);
    const T* seg = spine_[s].peek();
    return seg ? seg + (i - segment_start(s)) : nullptr;
  }
  T* peek(size_t i) {
    int s = checked_segment_of(i);
    T* seg = spine_[s].peek();
    return seg ? seg + (i - segment_start(s)) : nullptr;
  }

  /// Whether segment s is published (diagnostics and search loops).
  bool segment_published(int s) const {
    C2SL_CHECK(s >= 0 && s < kMaxSegments, "segment index out of spine range");
    return spine_[s].peek() != nullptr;
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
  /// segment_of with the spine-range check BEFORE any spine access: indices
  /// past segment 56 (> ~2^62.8) are not reachable by honest use, but they
  /// must surface as the documented checked error, not as an out-of-bounds
  /// spine read.
  static int checked_segment_of(size_t i) {
    int s = segment_of(i);
    C2SL_CHECK(s < kMaxSegments, "segmented spine exhausted (index beyond ~2^62)");
    return s;
  }

  PublishOnce<T[]> spine_[kMaxSegments];
};

}  // namespace c2sl::rt
