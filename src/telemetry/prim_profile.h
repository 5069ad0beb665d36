// Primitive-op profiling: counts the consensus-number-2 primitive invocations
// (fetch&add, test&set/exchange, swap) issued by the current thread, plus a
// handful of process-wide cold-path events (segment claims/publications, shard
// initialisations).
//
// This header is the bottom of the capture stack: it owns the one build
// switch (C2SL_CAPTURE, CMake option of the same name) that every capture
// header — histogram.h, telemetry.h, trace.h and the exporters — keys its
// capture_on / capture_off inline-namespace pair on, and the one op table
// (TraceOp) the metrics and the trace share. It is included by the runtime
// constructions themselves (native_tas_family.h, counter_sum_digest.h,
// handoff_queue.h, segmented_array.h), so it must not depend on anything above
// util/. The per-thread counters are plain (non-atomic) thread_local fields —
// bumping one is a register increment, never a shared-memory operation — and
// the whole thing compiles to nothing under C2SL_CAPTURE=0: the macros expand
// to ((void)0), which is constexpr-evaluable, a property
// tests/telemetry_off_test.cpp exploits to prove structurally that the disabled
// flavour contains no atomic operations (atomics are not usable in constant
// evaluation).
//
// Why count at the primitive layer rather than the service layer: the paper's
// constructions are all towers of FAA/TAS/swap, so "how many primitive RMWs
// does one service op cost" is the natural cost model — the profile table
// exported in c2sl-metrics-v1 gives future perf work (batching, wider words)
// its baseline without re-deriving it from the algorithms.
#pragma once

#include <cstdint>

#ifndef C2SL_CAPTURE
#define C2SL_CAPTURE 1
#endif

#if C2SL_CAPTURE
#include <atomic>
#endif

namespace c2sl::tel {

/// Per-thread primitive invocation counts. Plain data — snapshot by copy,
/// diff by subtraction (c2bench's per-op ledger does both).
struct PrimCounts {
  uint64_t faa = 0;   ///< fetch&add (reads of a fetch&add word are loads)
  uint64_t tas = 0;   ///< test&set / single-use exchange
  uint64_t swap = 0;  ///< multi-use swap (exchange on a swap register)
};

constexpr PrimCounts operator-(PrimCounts a, PrimCounts b) {
  return PrimCounts{a.faa - b.faa, a.tas - b.tas, a.swap - b.swap};
}

/// Process-wide cold-path events (all off the per-op hot path).
enum class TelEvent : int {
  kSegmentClaim = 0,    ///< SegmentedArray claim TAS won (materialisation race)
  kSegmentPublish = 1,  ///< SegmentedArray segment pointer published
  kShardInit = 2,       ///< C2Store shard lazily initialised
  kResizeClaim = 3,     ///< RoutingEpoch resize claim won (install started)
  kEpochPublish = 4,    ///< RoutingEpoch epoch published (migration complete)
  kKeysMigrated = 5,    ///< one shard slot's state replayed into a new bucket
  kCount = 6,
};

inline const char* to_string(TelEvent e) {
  switch (e) {
    case TelEvent::kSegmentClaim: return "segment_claims";
    case TelEvent::kSegmentPublish: return "segment_publishes";
    case TelEvent::kShardInit: return "shard_inits";
    case TelEvent::kResizeClaim: return "resize_claims";
    case TelEvent::kEpochPublish: return "epochs_published";
    case TelEvent::kKeysMigrated: return "migrated_keys";
    default: return "unknown_event";
  }
}

inline constexpr int kTelEventCount = static_cast<int>(TelEvent::kCount);

/// Instrumented op kinds: the C2Store ref/session surface plus the two
/// lifecycle kinds. The one op table of the capture layer — trace records
/// carry every kind; the metrics count the first kTelOpCount (the lifecycle
/// kinds have no per-op counter), so c2sl-metrics-v1 keys stay stable.
enum class TraceOp : int {
  kMaxWrite = 0,
  kMaxRead,
  kCounterInc,
  kCounterRead,
  kTasSet,
  kTasRead,
  kTasReset,
  kSetPut,
  kSetTake,
  kGlobalMax,
  kCounterSum,
  kSessionOpen,
  kSnapshot,
  kTransfer,
  kSessionClose,
  kResize,
  kCount,
};

/// The metrics' spelling of the same table (telemetry.h, export.cpp).
using TelOp = TraceOp;

inline constexpr int kTraceOpCount = static_cast<int>(TraceOp::kCount);
/// Op kinds with a metrics counter: every kind before kSessionClose.
inline constexpr int kTelOpCount = static_cast<int>(TraceOp::kSessionClose);

inline const char* to_string(TraceOp op) {
  switch (op) {
    case TraceOp::kMaxWrite: return "max_write";
    case TraceOp::kMaxRead: return "max_read";
    case TraceOp::kCounterInc: return "counter_inc";
    case TraceOp::kCounterRead: return "counter_read";
    case TraceOp::kTasSet: return "tas_set";
    case TraceOp::kTasRead: return "tas_read";
    case TraceOp::kTasReset: return "tas_reset";
    case TraceOp::kSetPut: return "set_put";
    case TraceOp::kSetTake: return "set_take";
    case TraceOp::kGlobalMax: return "global_max";
    case TraceOp::kCounterSum: return "counter_sum";
    case TraceOp::kSessionOpen: return "session_open";
    case TraceOp::kSnapshot: return "snapshot";
    case TraceOp::kTransfer: return "transfer";
    case TraceOp::kSessionClose: return "session_close";
    case TraceOp::kResize: return "resize";
    default: return "unknown_op";
  }
}

#if C2SL_CAPTURE

inline namespace capture_on {  // inline namespace: ODR-safe across flavours

inline constexpr bool kEnabled = true;

/// The calling thread's primitive counters. thread_local plain fields: the
/// C2SL_TEL_PRIM_* bumps below are single-thread register increments, not
/// shared-memory traffic.
inline PrimCounts& this_thread_prims() {
  thread_local PrimCounts counts;
  return counts;
}

/// Process-wide event counters. Cold path only (segment materialisation,
/// shard init), so a relaxed fetch_add here costs nothing measurable.
inline std::atomic<uint64_t>& event_counter(TelEvent e) {
  static std::atomic<uint64_t> counters[kTelEventCount];
  return counters[static_cast<int>(e)];
}

inline uint64_t event_count(TelEvent e) {
  // c2sl-atomic: load relaxed — cold event-counter read (export only)
  return event_counter(e).load(std::memory_order_relaxed);
}

}  // namespace capture_on

#define C2SL_TEL_PRIM_FAA() (void)(++::c2sl::tel::this_thread_prims().faa)
#define C2SL_TEL_PRIM_TAS() (void)(++::c2sl::tel::this_thread_prims().tas)
#define C2SL_TEL_PRIM_SWAP() (void)(++::c2sl::tel::this_thread_prims().swap)
// c2sl-atomic: faa relaxed — cold event bump (segment/shard init only); a
// relaxed RMW on a counter that feeds no decision
#define C2SL_TEL_EVENT(e) \
  (void)::c2sl::tel::event_counter(e).fetch_add(1, std::memory_order_relaxed)

#else  // !C2SL_CAPTURE

inline namespace capture_off {

inline constexpr bool kEnabled = false;

/// Disabled flavour: everything is constexpr and stateless, so the compiler
/// erases it. Returning by value (not thread_local reference) keeps this
/// usable in constant evaluation — the structural zero-atomics proof.
constexpr PrimCounts this_thread_prims() { return PrimCounts{}; }
constexpr uint64_t event_count(TelEvent) { return 0; }

}  // namespace capture_off

#define C2SL_TEL_PRIM_FAA() ((void)0)
#define C2SL_TEL_PRIM_TAS() ((void)0)
#define C2SL_TEL_PRIM_SWAP() ((void)0)
#define C2SL_TEL_EVENT(e) ((void)0)

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
