// Lane-local telemetry — the observability layer built from single-writer
// plain registers only.
//
// Every service lane owns a LaneTelemetry block: per-op-kind counters,
// per-shard heat cells and log-bucketed latency histograms. (The post-mortem
// last-N ops come from the witness trace's tail, trace_export.h.) Lanes are single-owner by construction (svc::LaneRegistry hands
// each lane to exactly one session at a time), so every write here is a plain
// register write — relaxed load + relaxed store on a private cache line. The
// layer adds NO shared read-modify-write to any operation: an instrumented op
// touches no word another lane writes.
//
// Every metric is therefore a lane scan: racy while ops are in flight, exact
// once the lanes quiesce. That includes ops_total, the sum of the per-kind
// counters. Such a scan is linearizable but NOT strongly linearizable
// (svc::SimTelemetryCounter pins the refutation, and the verified alternative
// — one shared FAA word bumped by every op — for comparison;
// tests/telemetry_test.cpp). Nothing may branch on a metric; a count an
// adaptive adversary must not be able to game belongs on a store object (a
// CounterRef, or the counter_sum() digest), not here.
//
// Cost budget per instrumented op (on-flavour): two relaxed load+store pairs
// (kind counter + shard heat cell) and a pair of clock reads on 1 of every
// kLatencySamplePeriod ops. Under C2SL_CAPTURE=0 every type in this header
// collapses to an empty constexpr shell — tests/telemetry_off_test.cpp proves
// the hot-path calls are constant-evaluable, hence free of atomics.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/histogram.h"
#include "telemetry/prim_profile.h"

#if C2SL_CAPTURE
#include <atomic>
#include <chrono>

#include "runtime/segmented_array.h"
#endif

namespace c2sl::tel {

/// Plain-data snapshot of everything telemetry knows — what the exporters
/// (telemetry/export.h), c2bench, and tools/metrics_diff.py see.
/// Every field is a racy lane scan or a relaxed counter, exact at quiescence.
struct MetricsSnapshot {
  bool enabled = false;
  int lanes = 0;  ///< lane blocks scanned

  /// Instrumented ops: the sum of op_counts, from the same lane scan.
  int64_t ops_total = 0;

  uint64_t op_counts[kTelOpCount] = {};
  HistogramSnapshot op_latency[kTelOpCount];  ///< sampled, see kLatencySamplePeriod
  HistogramSnapshot open_wait;                ///< blocking open_session wait time

  // Session-layer counters (filled by svc::C2Store::metrics_snapshot from the
  // LaneRegistry/HandoffQueue introspection the TSAN stress already bounds).
  int64_t handoff_enqueued = 0;
  int64_t handoff_deliveries = 0;
  int64_t handoff_parks = 0;
  int64_t handoff_revocations = 0;

  uint64_t events[kTelEventCount] = {};

  // Per-shard heat: ops observed against each routing bucket, summed over
  // lanes (racy lane-scan like op_counts — heat is a diagnostic, not a
  // decision input). Aggregate ops carry no shard, so sum <= ops_total.
  std::vector<uint64_t> shard_ops;
};

/// Max-over-mean ratio of shard_ops — 1.0 is perfectly balanced, higher means
/// skew (zipfian/hotburst heat). 1.0 when nothing keyed was counted.
inline double shard_imbalance(const MetricsSnapshot& snap) {
  if (snap.shard_ops.empty()) return 1.0;
  uint64_t max = 0;
  uint64_t sum = 0;
  for (uint64_t c : snap.shard_ops) {
    if (c > max) max = c;
    sum += c;
  }
  if (sum == 0) return 1.0;
  double mean =
      static_cast<double>(sum) / static_cast<double>(snap.shard_ops.size());
  return static_cast<double>(max) / mean;
}

/// 1 of every 32 ops pays the two steady_clock reads for its latency sample;
/// the rest skip the clock entirely. The counters see every op.
inline constexpr uint64_t kLatencySamplePeriod = 32;

#if C2SL_CAPTURE

inline namespace capture_on {

/// Per-lane telemetry block. Single writer: the session that owns the lane.
/// All fields are plain-register (load+store) cells; std::atomic only so the
/// racy aggregating reader is well-defined under TSAN.
struct alignas(128) LaneTelemetry {
  std::atomic<uint64_t> op_counts[kTelOpCount] = {};
  LatencyHistogram op_hist[kTelOpCount];
  LatencyHistogram open_wait;

  // The per-op-kind counters also give the lane's total ops (their sum), so
  // the hot path pays exactly one load+store pair.
  void bump(TelOp op) {
    std::atomic<uint64_t>& c = op_counts[static_cast<int>(op)];
    // c2sl-atomic: store relaxed, load relaxed — single-writer plain-register
    // cell; atomic only so the racy aggregating reader is defined
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // Per-shard heat cells, lane-local single-writer like op_counts, segmented
  // because resize can grow the bucket count without bound (no capacity knob).
  rt::SegmentedArray<std::atomic<uint64_t>> shard_ops;

  void bump_shard(int shard) {
    if (shard < 0) return;
    std::atomic<uint64_t>& c = shard_ops.cell(static_cast<size_t>(shard));
    // c2sl-atomic: store relaxed, load relaxed — single-writer heat cell;
    // atomic only so the racy aggregating reader is defined
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  uint64_t peek_shard(int shard) const {
    const std::atomic<uint64_t>* c =
        shard_ops.peek(static_cast<size_t>(shard));
    // c2sl-atomic: load relaxed — documented-racy scan-side read
    return c == nullptr ? 0 : c->load(std::memory_order_relaxed);
  }
};

/// Store-wide telemetry root: the lane-block spine. It holds no shared word
/// of its own — every write lands in some lane's block.
class StoreTelemetry {
 public:
  StoreTelemetry() = default;
  StoreTelemetry(const StoreTelemetry&) = delete;
  StoreTelemetry& operator=(const StoreTelemetry&) = delete;

  LaneTelemetry* lane(int i) { return &lanes_.cell(static_cast<size_t>(i)); }
  const LaneTelemetry* peek_lane(int i) const {
    return lanes_.peek(static_cast<size_t>(i));
  }

  void record_open_wait(LaneTelemetry* lt, int64_t ns) {
    if (lt == nullptr) return;
    lt->bump(TelOp::kSessionOpen);
    lt->open_wait.record(ns);
  }

  /// Telemetry-core snapshot: one pass over the lane blocks. The service
  /// layer adds its registry/handoff counters on top
  /// (C2Store::metrics_snapshot). `shards` sizes the per-shard heat vector
  /// (0 = skip the heat scan).
  MetricsSnapshot snapshot(int max_lanes, int shards = 0) const {
    MetricsSnapshot s;
    s.enabled = true;
    s.shard_ops.assign(static_cast<size_t>(shards > 0 ? shards : 0), 0);
    for (int i = 0; i < max_lanes; ++i) {
      const LaneTelemetry* lt = peek_lane(i);
      if (lt == nullptr) continue;
      ++s.lanes;
      for (int k = 0; k < kTelOpCount; ++k) {
        // c2sl-atomic: load relaxed — documented-racy scan-side read
        s.op_counts[k] += lt->op_counts[k].load(std::memory_order_relaxed);
        s.op_latency[k].merge(lt->op_hist[k].snapshot());
      }
      for (size_t b = 0; b < s.shard_ops.size(); ++b) {
        s.shard_ops[b] += lt->peek_shard(static_cast<int>(b));
      }
      s.open_wait.merge(lt->open_wait.snapshot());
    }
    for (uint64_t c : s.op_counts) s.ops_total += static_cast<int64_t>(c);
    for (int e = 0; e < kTelEventCount; ++e) {
      s.events[e] = event_count(static_cast<TelEvent>(e));
    }
    return s;
  }

 private:
  rt::SegmentedArray<LaneTelemetry> lanes_;
};

/// RAII instrumentation for one service op: lane counters at entry, sampled
/// latency at exit. Constructed at the top of every ref/session hot path;
/// `lane` is the session's cached LaneTelemetry pointer. The store and arg
/// arguments are unused: an op writes only its own lane's counters, and its
/// argument lands in the witness trace (TraceScope) instead.
class OpScope {
 public:
  OpScope(StoreTelemetry& /*store*/, LaneTelemetry* lane, TelOp op, int shard,
          int64_t /*arg*/)
      : lane_(lane), op_(op) {
    std::atomic<uint64_t>& c = lane->op_counts[static_cast<int>(op)];
    // c2sl-atomic: load relaxed — single-writer cell read (sampling decision)
    uint64_t prev = c.load(std::memory_order_relaxed);
    // c2sl-atomic: store relaxed — single-writer cell bump
    c.store(prev + 1, std::memory_order_relaxed);
    lane->bump_shard(shard);
    sampled_ = (prev & (kLatencySamplePeriod - 1)) == 0;
    if (sampled_) t0_ = std::chrono::steady_clock::now();
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  ~OpScope() {
    if (!sampled_) return;
    auto dt = std::chrono::steady_clock::now() - t0_;
    lane_->op_hist[static_cast<int>(op_)].record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
  }

 private:
  LaneTelemetry* lane_;
  TelOp op_;
  bool sampled_;
  std::chrono::steady_clock::time_point t0_;
};

/// Times the blocking window of open_session. Off-flavour is empty — the
/// disabled build never touches the clock.
class OpenTimer {
 public:
  int64_t elapsed_ns() const {
    auto dt = std::chrono::steady_clock::now() - t0_;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

}  // namespace capture_on

#else  // !C2SL_CAPTURE

inline namespace capture_off {

/// Disabled flavour: every type is an empty constexpr shell. The hot-path
/// calls are constant-evaluable (no atomics possible) — proven structurally
/// in tests/telemetry_off_test.cpp.
struct LaneTelemetry {
  constexpr void bump(TelOp) const {}
  constexpr void bump_shard(int) const {}
  constexpr uint64_t peek_shard(int) const { return 0; }
};

class StoreTelemetry {
 public:
  constexpr LaneTelemetry* lane(int) const { return nullptr; }
  constexpr const LaneTelemetry* peek_lane(int) const { return nullptr; }
  constexpr void record_open_wait(LaneTelemetry*, int64_t) const {}
  MetricsSnapshot snapshot(int, int = 0) const { return MetricsSnapshot{}; }
};

class OpScope {
 public:
  constexpr OpScope(const StoreTelemetry&, const LaneTelemetry*, TelOp, int,
                    int64_t) {}
};

class OpenTimer {
 public:
  constexpr int64_t elapsed_ns() const { return 0; }
};

}  // namespace capture_off

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
