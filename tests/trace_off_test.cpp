// Structural proof that the DISABLED capture flavour is zero-overhead, trace
// half: the linearization-witness trace (trace.h, trace_export.h) and the
// assert hook's post-mortem. telemetry_off_test.cpp proves the same for the
// metrics; both halves sit under the one C2SL_CAPTURE switch.
//
// This TU is compiled with C2SL_CAPTURE=0 forced by CMake (one of the two
// targets in the build with the off flavour when the tree is configured ON),
// and it includes ONLY capture headers — never the service layer, whose
// library objects carry the build-wide flavour. That is ODR-safe by
// construction: the two flavours live in distinct inline namespaces
// (capture_on / capture_off), so the mangled names differ even when both
// appear in one link.
//
// Same proof idea as telemetry_off_test.cpp: atomics, clock reads (rdtsc
// included — a builtin call is not a constant expression), thread_local
// access and heap allocation are unusable in constant evaluation, so if the
// entire capture path — TraceScope construction and its setters, point
// events, the lane accessors, the post-mortem dump — runs inside a constexpr
// function feeding a static_assert, the disabled flavour provably contains
// none of them.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

static_assert(C2SL_CAPTURE == 0,
              "trace_off_test must be compiled with C2SL_CAPTURE=0 "
              "(CMake forces it per-target)");

namespace c2sl {
namespace {

static_assert(!tel::kEnabled);

// Every stateful trace type collapses to an empty shell when disabled. The
// record and dump structs stay REAL plain data in both flavours (exporters
// and tools never need #if), so they are deliberately absent here.
static_assert(std::is_empty_v<tel::LaneTrace>);
static_assert(std::is_empty_v<tel::StoreTrace>);
static_assert(std::is_empty_v<tel::TraceScope>);
static_assert(tel::LaneTrace::kCap == 0);

// The whole trace capture path, in constant evaluation. Any atomic
// operation, clock read, thread_local access or allocation anywhere below
// would make this function non-constexpr-evaluable and fail the
// static_assert.
constexpr bool off_capture_path_is_constant_evaluable() {
  // An interval op's trace record exactly as the C2Store refs stage one.
  tel::StoreTrace trace;
  tel::LaneTrace* tlane = trace.lane(0);
  {
    tel::TraceScope tr(tlane, tel::TraceOp::kCounterInc, /*key=*/3, /*arg=*/1);
    tr.set_result(0);
    tr.set_witness(17);
    tr.set_key_b(2);
    tr.set_epoch(1);
  }
  // A lifecycle point event exactly as open/close/resize record one.
  trace.record_event(tlane, tel::TraceOp::kSessionOpen, -1, 0, 0, -1, -1);
  tel::LaneTrace standalone;
  standalone.flush();  // the writer-side flush is part of the hot-path API
  // The assert hook's post-mortem.
  tel::dump_trace_tail(nullptr, trace, /*max_lanes=*/8);

  return tel::trace_now() == 0 && trace.lane(7) == nullptr &&
         trace.peek_lane(0) == nullptr && standalone.begin_append() == nullptr &&
         standalone.published() == 0 && standalone.dropped() == 0;
}

static_assert(off_capture_path_is_constant_evaluable(),
              "the disabled capture flavour executed a non-constexpr "
              "operation: an atomic, clock read, thread_local or allocation "
              "leaked into the off trace capture path");

// The drain and both trace exporters still work — a disabled build exports a
// well-formed document saying so, and the offline auditor treats
// trace_enabled=false as vacuously valid.
TEST(TraceOff, DumpAndExportersReportDisabled) {
  tel::StoreTrace trace;
  tel::TraceDump d = trace.dump(/*max_lanes=*/8, /*initial_shards=*/16);
  EXPECT_FALSE(d.enabled);
  EXPECT_TRUE(d.lanes.empty());
  std::string json = tel::trace_to_json(d, "trace_off_test");
  EXPECT_NE(json.find("\"schema\":\"c2sl-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_enabled\":false"), std::string::npos);
  EXPECT_NE(json.find("\"records_total\":0"), std::string::npos);
  std::string chrome = tel::trace_to_chrome(d, "trace_off_test");
  EXPECT_NE(chrome.find("\"traceEvents\":[]"), std::string::npos);
}

// The record struct keeps its one-cache-line layout in both flavours: a
// trace file written by an ON build parses against the same struct shape
// tools compiled OFF would assume.
TEST(TraceOff, RecordLayoutIsFlavourIndependent) {
  static_assert(sizeof(tel::TraceRecord) == 64);
  static_assert(std::is_trivially_copyable_v<tel::TraceRecord>);
  tel::TraceRecord r;
  EXPECT_EQ(r.witness, -1);
}

}  // namespace
}  // namespace c2sl
