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
// SEGMENT FIRST (every cell in its initial state) and PUBLISHES THE POINTER
// SECOND (a register write, consensus number 1); losers spin on the pointer,
// and readers that must not allocate treat an unpublished segment as "all
// cells initial" (peek() returns nullptr). C2Store shard slots publish
// through the same function, so the checker verdict on its
// init-before-publish order (rt::BasicPublishOnce over sim::SimMem, pinned in
// tests/service_sim_test.cpp; prose in docs/PROOFS.md) covers both. No CAS
// anywhere — the no-CAS grep test (tests/c2store_test.cpp) scans this file.
//
// Zero pages: a segment of trivially constructible, trivially destructible
// cells (a journal cell, a plain word behind Mem::ref) whose initial state is
// all-zero bytes comes from calloc and goes back with free. A large segment
// is then fresh zero-fill-on-demand pages: the publish costs one allocation
// rather than a store to each of up to 2^k cells, and a page is resident only
// once a cell on it is written (or populate() prefaults it). Every other cell
// type (shard slots, lane blocks, the set's INT64_MIN item cell, the
// test&set bytes) is value-initialised with new T[n]() and freed with
// delete[].
//
// Why doubling segments (and not, say, a linked list of fixed blocks): the
// spine stays small enough to sit inline (57 slots), index→segment is two bit
// operations, and a structure that grows to n cells publishes only O(log n)
// segments while wasting at most half of its allocation. (The fetch&increment
// search does not walk segments: it probes by index from its own certified
// frontier word — see NativeFetchIncrement in native_tas_family.h.)
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

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

  /// Whether segments come from calloc as zero pages (header comment).
  static constexpr bool kZeroPages =
      std::is_trivially_default_constructible_v<T> &&
      std::is_trivially_destructible_v<T> &&
      alignof(T) <= alignof(std::max_align_t);

  /// Cell i, materialising its segment on demand (claim + construct + publish;
  /// losers spin on the pointer while the winner allocates: one calloc for
  /// zero-page cells, a value-initialisation of every cell otherwise).
  T& cell(size_t i) {
    int s = checked_segment_of(i);
    T* seg = spine_[s].get([s] {
      C2SL_TEL_EVENT(tel::TelEvent::kSegmentClaim);
      auto cells = allocate(segment_size(s));
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

  /// Prefaults the pages that hold cells [first, first + n) in published
  /// segments as writable, without changing any cell's value, so the first
  /// writes there take no page fault. Never allocates; a segment not yet
  /// published is skipped. Best effort: where the kernel has no
  /// MADV_POPULATE_WRITE the call fails and each page faults in when it is
  /// first written.
  void populate([[maybe_unused]] size_t first, [[maybe_unused]] size_t n) {
#if defined(MADV_POPULATE_WRITE)
    static const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    for (size_t i = first, end = first + n; i < end;) {
      const int s = checked_segment_of(i);
      const size_t stop = std::min(end, segment_last(s) + 1);
      if (T* seg = spine_[s].peek()) {
        // Whole pages around the range: they hold only this allocation's
        // bytes or its neighbours', and the prefault writes none of them.
        const size_t at = segment_start(s);
        const auto lo = reinterpret_cast<uintptr_t>(seg + (i - at)) & ~(page - 1);
        const auto hi = reinterpret_cast<uintptr_t>(seg + (stop - at));
        madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_POPULATE_WRITE);
      }
      i = stop;
    }
#endif
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

  /// Frees a segment the way allocate() made it.
  struct FreeSegment {
    void operator()(T* p) const {
      if constexpr (kZeroPages) {
        std::free(p);
      } else {
        delete[] p;
      }
    }
  };
  using Segment = std::unique_ptr<T[], FreeSegment>;

  static Segment allocate(size_t n) {
    if constexpr (kZeroPages) {
      // calloc's zero bytes are every cell's initial state, and a trivial
      // type's cells begin their lifetime in the storage calloc returns.
      void* p = std::calloc(n, sizeof(T));
      if (p == nullptr) throw std::bad_alloc();
      return Segment(static_cast<T*>(p));
    } else {
      return Segment(new T[n]());  // value-initialised
    }
  }

  PublishOnce<T[], 64, FreeSegment> spine_[kMaxSegments];
};

}  // namespace c2sl::rt
