// Structural proof that the DISABLED capture flavour is zero-overhead, metrics
// half: the lane-local metrics (telemetry.h, histogram.h, prim_profile.h).
// trace_off_test.cpp proves the same for the witness trace; both halves sit
// under the one C2SL_CAPTURE switch.
//
// This TU is compiled with C2SL_CAPTURE=0 forced by CMake (one of the two
// targets in the build with the off flavour when the tree is configured ON),
// and it includes ONLY capture headers — never the service layer, whose
// library objects carry the build-wide flavour. That is ODR-safe by
// construction: the two flavours live in distinct inline namespaces
// (capture_on / capture_off), so the mangled names differ even when both
// appear in one link.
//
// The proof idea: atomic operations, clock reads, thread_local access and
// heap allocation are not usable in constant evaluation. If the entire
// instrumented hot path — prim macros, counter bumps, OpScope construction,
// the lane accessors — can run inside a constexpr function whose result
// feeds a static_assert, then the disabled flavour provably contains none of
// them: the compiler would have rejected the static_assert otherwise. The
// runtime half (the capture on-vs-off cost on mix/mixed) is CI's overhead
// gate; see .github/workflows/ci.yml.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "telemetry/export.h"
#include "telemetry/histogram.h"
#include "telemetry/prim_profile.h"
#include "telemetry/telemetry.h"

static_assert(C2SL_CAPTURE == 0,
              "telemetry_off_test must be compiled with C2SL_CAPTURE=0 "
              "(CMake forces it per-target)");

namespace c2sl {
namespace {

static_assert(!tel::kEnabled);

// Every stateful metrics type collapses to an empty shell when disabled.
static_assert(std::is_empty_v<tel::LaneTelemetry>);
static_assert(std::is_empty_v<tel::StoreTelemetry>);
static_assert(std::is_empty_v<tel::LatencyHistogram>);
static_assert(std::is_empty_v<tel::OpScope>);
static_assert(std::is_empty_v<tel::OpenTimer>);

// The whole instrumented metrics path, in constant evaluation. Any atomic
// operation, clock read, thread_local access or allocation anywhere below
// would make this function non-constexpr-evaluable and fail the
// static_assert.
constexpr bool off_hot_path_is_constant_evaluable() {
  // The primitive-op macros at every runtime RMW site.
  C2SL_TEL_PRIM_FAA();
  C2SL_TEL_PRIM_TAS();
  C2SL_TEL_PRIM_SWAP();
  C2SL_TEL_EVENT(tel::TelEvent::kSegmentClaim);
  tel::PrimCounts before = tel::this_thread_prims();  // by-value when off
  tel::PrimCounts delta = tel::this_thread_prims() - before;

  // The per-op metrics C2Store's refs run.
  tel::StoreTelemetry store;
  tel::LaneTelemetry* lane = store.lane(0);
  {
    tel::OpScope op(store, lane, tel::TelOp::kMaxWrite, /*shard=*/0, /*arg=*/7);
  }
  tel::LaneTelemetry lt;
  lt.bump(tel::TelOp::kCounterInc);
  tel::LatencyHistogram hist;
  hist.record(123);

  // The session-open path.
  tel::OpenTimer timer;
  store.record_open_wait(lane, timer.elapsed_ns());

  return delta.faa == 0 && delta.tas == 0 && delta.swap == 0 &&
         tel::event_count(tel::TelEvent::kShardInit) == 0 &&
         store.peek_lane(0) == nullptr && timer.elapsed_ns() == 0;
}

static_assert(off_hot_path_is_constant_evaluable(),
              "the disabled capture flavour executed a non-constexpr "
              "operation: an atomic, clock read, thread_local or allocation "
              "leaked into the off metrics hot path");

// Runtime face of the same guarantee: snapshots and the exporter still work
// (a disabled build exports a well-formed document saying so), so callers
// never need their own #if around metrics plumbing.
TEST(TelemetryOff, SnapshotAndExporterReportDisabled) {
  tel::StoreTelemetry store;
  tel::MetricsSnapshot m = store.snapshot(8);
  EXPECT_FALSE(m.enabled);
  EXPECT_EQ(m.ops_total, 0);
  EXPECT_EQ(m.lanes, 0);
  std::string json = tel::to_json(m, "telemetry_off_test");
  EXPECT_NE(json.find("\"schema\":\"c2sl-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"telemetry_enabled\":false"), std::string::npos);
}

// The histogram math (plain data, flavour-independent) stays available even
// when capture is off.
TEST(TelemetryOff, SharedQuantileRuleStillAvailable) {
  EXPECT_EQ(tel::nearest_rank_index(4, 0.50), 1u);
  EXPECT_EQ(tel::nearest_rank_index(100, 0.99), 98u);
  EXPECT_EQ(tel::hist_bucket_of(1024), 11);
}

}  // namespace
}  // namespace c2sl
