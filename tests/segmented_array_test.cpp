// SegmentedArray (runtime/segmented_array.h) and the unbounded native TAS
// family rebased on it:
//
//  1. Index math: the doubling-segment layout (base 64) maps every index to
//     exactly one segment, boundaries included.
//  2. Segment-boundary edges: fetch&increment values straddling the doublings
//     (63|64, 191|192, 447|448, ...) — the read, a finger search from the
//     certified frontier, must agree with the dense increment count at every
//     step and on a never-incremented object (frontier 0), and the
//     first_unset confirm loop must hold up under real-thread contention
//     right at a boundary.
//  3. Publication race: threads force the SAME fresh segment concurrently;
//     the claim must elect exactly one constructor (observed indirectly:
//     every cell still has exactly one test&set winner — two published
//     instances would hand out two wins). A winner whose construction throws
//     poisons the slot: later callers get the named error, never a spin.
//  4. NativeSet growth: put/take across several segment doublings conserves
//     items (a TSAN target via this suite's membership in the stress set
//     wouldn't add much — c2store_stress_test already runs set TSAN stress —
//     but the boundary-heavy volumes here run under the normal suite).
//  5. Lifetime: a LaneRegistry (and a C2Store session loop) survives far more
//     releases than any retired recycle capacity allowed — the acceptance
//     criterion for deleting `lane_recycle_capacity` — and stays fast doing
//     it (the verified-taken-prefix hint keeps each cycle O(1) amortized).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/native_tas_family.h"
#include "runtime/segmented_array.h"
#include "runtime/stress.h"
#include "service/c2store.h"
#include "service/lane_registry.h"

namespace c2sl {
namespace {

using Arr = rt::SegmentedArray<rt::NativeReadableTAS>;

// --- 1. index math -----------------------------------------------------------

TEST(SegmentedArray, DoublingSegmentLayout) {
  // Segment s: size 64 << s, start 64 * (2^s - 1).
  EXPECT_EQ(Arr::segment_of(0), 0);
  EXPECT_EQ(Arr::segment_of(63), 0);
  EXPECT_EQ(Arr::segment_of(64), 1);
  EXPECT_EQ(Arr::segment_of(191), 1);
  EXPECT_EQ(Arr::segment_of(192), 2);
  EXPECT_EQ(Arr::segment_of(447), 2);
  EXPECT_EQ(Arr::segment_of(448), 3);
  EXPECT_EQ(Arr::segment_start(0), 0u);
  EXPECT_EQ(Arr::segment_start(1), 64u);
  EXPECT_EQ(Arr::segment_start(2), 192u);
  EXPECT_EQ(Arr::segment_size(2), 256u);
  // Every index in a prefix maps into a segment that actually contains it.
  for (size_t i = 0; i < 3000; ++i) {
    int s = Arr::segment_of(i);
    EXPECT_GE(i, Arr::segment_start(s)) << i;
    EXPECT_LE(i, Arr::segment_last(s)) << i;
    if (i > 0) {
      EXPECT_GE(Arr::segment_of(i), Arr::segment_of(i - 1)) << i;
    }
  }
  // The spine really is "unbounded": the last segment ends beyond 2^62.
  EXPECT_GT(Arr::segment_last(Arr::kMaxSegments - 1),
            size_t{1} << 62);
}

TEST(SegmentedArray, PeekNeverAllocatesCellAlways) {
  rt::SegmentedArray<rt::NativeReadableTAS> arr;
  EXPECT_EQ(arr.segments_published(), 0);
  EXPECT_EQ(arr.peek(500), nullptr) << "peek must not materialise";
  EXPECT_EQ(arr.segments_published(), 0);
  arr.cell(500).test_and_set();  // index 500 lives in segment 3
  EXPECT_EQ(arr.segments_published(), 1);
  ASSERT_NE(arr.peek(500), nullptr);
  EXPECT_EQ(arr.peek(500)->read(), 1);
  ASSERT_NE(arr.peek(448), nullptr) << "same segment, published together";
  EXPECT_EQ(arr.peek(448)->read(), 0) << "sibling cells constructed initial";
  EXPECT_EQ(arr.peek(0), nullptr) << "other segments stay unpublished";
}

// --- 2. fetch&increment across segment doublings -----------------------------

TEST(NativeFetchIncrement, ReadAgreesAcrossSegmentBoundaries) {
  rt::NativeFetchIncrement fresh;  // never incremented: frontier 0
  EXPECT_EQ(fresh.read(), 0);
  EXPECT_EQ(fresh.read(), 0) << "a read must not move the frontier";
  EXPECT_EQ(fresh.fetch_and_increment(), 0);
  EXPECT_EQ(fresh.read(), 1);

  // Cross the first eleven doublings (64, 192, 448, ..., 131008); the read
  // must track the dense value exactly at every step, including right AT
  // each doubling.
  rt::NativeFetchIncrement fai;
  const int64_t end = static_cast<int64_t>(Arr::segment_start(11));
  int doublings = 0;
  for (int64_t i = 0; i < end; ++i) {
    ASSERT_EQ(fai.fetch_and_increment(), i);
    ASSERT_EQ(fai.read(), i + 1) << "after increment " << i;
    const size_t v = static_cast<size_t>(i + 1);
    if (Arr::segment_start(Arr::segment_of(v)) == v) ++doublings;
  }
  EXPECT_EQ(doublings, 11);
}

TEST(NativeFetchIncrement, ContendedAtASegmentBoundary) {
  // Park the value just below a doubling, then let 4 threads fight across it:
  // results must stay distinct and dense through the boundary.
  const int threads = 4;
  const int per_thread = 8;
  for (int round = 0; round < 25; ++round) {
    rt::NativeFetchIncrement fai;
    const int64_t base = 62;  // boundary at 64 lands mid-contention
    for (int64_t i = 0; i < base; ++i) fai.fetch_and_increment();
    std::vector<std::vector<int64_t>> got(static_cast<size_t>(threads));
    rt::run_stress(threads, per_thread, [&](int t, int) {
      rt::TimedOp op;
      got[static_cast<size_t>(t)].push_back(fai.fetch_and_increment());
      return op;
    });
    std::set<int64_t> all;
    for (const auto& v : got) {
      for (int64_t x : v) {
        EXPECT_TRUE(all.insert(x).second) << "duplicate " << x;
      }
    }
    ASSERT_EQ(all.size(), static_cast<size_t>(threads * per_thread));
    EXPECT_EQ(*all.begin(), base);
    EXPECT_EQ(*all.rbegin(), base + threads * per_thread - 1);
    EXPECT_EQ(fai.read(), base + threads * per_thread);
  }
}

// --- 3. concurrent publication of one fresh segment -------------------------

TEST(SegmentedArray, RacedPublicationYieldsOneInstance) {
  const int threads = 4;
  for (int round = 0; round < 30; ++round) {
    rt::SegmentedArray<rt::NativeReadableTAS> arr;
    // All threads hit distinct cells of the SAME unpublished segment (segment
    // 1: indices 64..191), so every op races the claim/construct/publish.
    // Then all threads also race ONE shared cell; a duplicated segment would
    // show up as either a second winner or a lost win.
    std::atomic<int> winners{0};
    rt::run_stress(threads, 1, [&](int t, int) {
      rt::TimedOp op;
      arr.cell(static_cast<size_t>(64 + t)).test_and_set();
      if (arr.cell(100).test_and_set() == 0) winners.fetch_add(1);
      return op;
    });
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(arr.segments_published(), 1);
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(arr.peek(static_cast<size_t>(64 + t))->read(), 1);
    }
  }
}

// A cell whose constructor always throws: the segment's claim winner fails
// mid-construction, after the one-shot claim is spent.
struct ThrowingCell {
  ThrowingCell() { throw std::runtime_error("cell constructor failed"); }
};

TEST(SegmentedArray, FailedConstructionPoisonsTheSegment) {
  rt::SegmentedArray<ThrowingCell> arr;
  // The claim winner sees its constructor's own exception.
  EXPECT_THROW(arr.cell(70), std::runtime_error);
  // Every later caller (same segment, any index) gets the named precondition
  // error instead of spinning on a pointer that will never be published.
  for (size_t i : {size_t{70}, size_t{64}, size_t{191}}) {
    try {
      arr.cell(i);
      ADD_FAILURE() << "cell(" << i << ") returned from a poisoned segment";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("initialization failed"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(arr.peek(70), nullptr) << "a poisoned segment is never published";
  EXPECT_EQ(arr.segments_published(), 0);
}

// --- 4. NativeSet across growth ----------------------------------------------

TEST(NativeSet, ConservationAcrossSegmentGrowth) {
  rt::NativeSet set;
  // 700 puts span segments 0..3 of the items/taken arrays.
  for (int64_t i = 0; i < 700; ++i) set.put(1000 + i);
  std::set<int64_t> taken;
  for (;;) {
    int64_t got = set.take();
    if (got == rt::NativeSet::kEmpty) break;
    EXPECT_TRUE(taken.insert(got).second) << "taken twice: " << got;
  }
  EXPECT_EQ(taken.size(), 700u);
  EXPECT_EQ(*taken.begin(), 1000);
  EXPECT_EQ(*taken.rbegin(), 1699);
  // Growth continues after a full drain: the set is reusable indefinitely.
  set.put(7);
  EXPECT_EQ(set.take(), 7);
  EXPECT_EQ(set.take(), rt::NativeSet::kEmpty);
}

// --- 5. lifetime: more closes than any retired capacity ----------------------

TEST(LaneRegistry, OutlivesAnyRetiredRecycleCapacity) {
  // The deleted config defaulted lane_recycle_capacity to 1 << 14 releases
  // over a registry's LIFETIME. Run more than twice that through a two-lane
  // registry; every acquire must keep succeeding from recycled lanes.
  svc::LaneRegistry reg(2);
  const int cycles = (1 << 15) + 512;  // > 2x the retired default
  for (int i = 0; i < cycles; ++i) {
    int lane = reg.try_acquire();
    ASSERT_GE(lane, 0) << "cycle " << i;
    reg.release(lane);
  }
  // Both lanes still acquirable at quiescence.
  std::set<int> drained{reg.try_acquire(), reg.try_acquire()};
  EXPECT_EQ(drained, (std::set<int>{0, 1}));
  EXPECT_EQ(reg.try_acquire(), svc::LaneRegistry::kNone);
}

TEST(C2Session, StoreSurvivesUnboundedSessionChurn) {
  // Session-level restatement of the acceptance criterion: a store now
  // supports arbitrarily many open/close cycles (each close is one recycle-set
  // put). 2x the retired default + change, through the full session surface.
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 4;
  cfg.max_threads = 2;
  cfg.max_value = 10;
  cfg.tas_max_resets = 6;
  svc::C2Store store(cfg);
  const int cycles = (1 << 15) + 512;
  for (int i = 0; i < cycles; ++i) {
    svc::C2Session s = store.open_session();
    ASSERT_TRUE(s.valid()) << "cycle " << i;
    if ((i & 1023) == 0) s.counter("churn").inc();  // keep the store live too
  }
  svc::C2Session s = store.open_session();
  EXPECT_EQ(s.counter("churn").read(), (cycles + 1023) / 1024);
}

}  // namespace
}  // namespace c2sl
