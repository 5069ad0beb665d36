// Multi-threaded workload driver for C2Store.
//
// Spawns `threads` real threads behind a start barrier; each thread opens its
// own C2Session (RAII lane), binds one typed ref per key up front, and runs
// `ops_per_thread` operations drawn from an OpMix, with keys drawn from a
// KeyDist, against one shared C2Store. Every operation's latency is recorded
// (two steady_clock reads per op) into a thread-local buffer; the driver
// merges the buffers, computes exact percentiles, re-reads the aggregate
// paths after quiescence, and can serialise everything as one entry of the
// repo-wide "c2sl-bench-v1" JSON schema (README.md documents the schema).
//
// Determinism: all randomness flows through per-thread SplitMix64 streams
// derived from (seed, thread id), so op/key sequences are reproducible from
// the seed alone; only timings vary between runs.
#pragma once

#include <cstdint>
#include <string>

#include "service/c2store.h"
#include "workload/distributions.h"
#include "workload/json_writer.h"
#include "workload/latency.h"
#include "workload/op_mix.h"

namespace c2sl::wl {

/// Hard ceiling on the shard count the resize_every schedule will grow a
/// store to — keeps TAS reset bookkeeping and migration sweeps bounded no
/// matter how many ops a long run pushes through worker 0.
inline constexpr int kResizeShardCap = 256;

struct WorkloadConfig {
  int threads = 4;
  uint64_t ops_per_thread = 5000;
  uint64_t key_space = 1024;
  std::string dist = "uniform";  ///< uniform | zipfian | hotburst
  double zipf_theta = 0.99;
  OpMix mix = OpMix::mixed();
  uint64_t seed = 1;
  /// Live-resize schedule: when > 0, worker 0 doubles the store's shard count
  /// after every `resize_every` of ITS OWN ops (capped at kResizeShardCap),
  /// while every worker keeps running keyed traffic — the resize_storm mix's
  /// reason to exist. Resizes are the live epoch hand-off (C2Session::resize,
  /// fully concurrent with data ops). 0 disables resizing. Incompatible with
  /// session_churn (no stable resizer session).
  uint64_t resize_every = 0;
  /// When true, the workload drains the store's linearization-witness trace
  /// after quiescence into WorkloadResult::trace (tel::trace_to_json /
  /// tel::trace_to_chrome ready; audited offline by tools/trace_audit.py).
  /// Capture itself is always on (C2SL_TRACE=1 builds) — this only controls
  /// the drain, which copies every record.
  bool collect_trace = false;
  /// Shard layout etc. The engine clamps max_threads / max_value /
  /// tas_max_resets (the 63-bit lane-packing budgets) so any
  /// (threads, ops_per_thread) fits; nothing else needs sizing — the store's
  /// arrays are unbounded.
  svc::C2StoreConfig store;
};

/// Per-waiter fairness of blocking open_session() under the session_churn
/// mix (the wait-time-spread metric PR 5 left open): each worker thread is
/// one recurring waiter; its open latencies summarise to per-waiter p50/p99/
/// max, and the SPREAD is the max-min gap of each statistic across waiters —
/// zero would be perfectly even FIFO service.
struct WaitSpread {
  uint64_t waiters = 0;  ///< workers with at least one recorded open
  int64_t p50_min_ns = 0, p50_max_ns = 0, p50_spread_ns = 0;
  int64_t p99_min_ns = 0, p99_max_ns = 0, p99_spread_ns = 0;
  int64_t max_min_ns = 0, max_max_ns = 0, max_spread_ns = 0;
};

struct WorkloadResult {
  WorkloadConfig cfg;
  uint64_t total_ops = 0;
  double seconds = 0.0;
  double throughput_ops_s = 0.0;
  LatencyStats latency;
  uint64_t per_kind[kOpKindCount] = {0};
  int initialized_shards = 0;
  int64_t final_global_max = 0;
  int64_t final_counter_sum = 0;
  /// Keyed writes journaled during the run (counter incs, max writes,
  /// transfers — snapshots and reads never journal).
  int64_t journal_tickets = 0;
  /// Successful live resizes worker 0 completed (0 when resize_every == 0).
  int64_t resizes_done = 0;
  /// The store's routed shard count after quiescence (== the configured
  /// initial_shards unless resizes ran).
  int final_shards = 0;
  /// Populated only by the session_churn mix (waiters == 0 otherwise).
  WaitSpread wait_spread;
  /// The store's telemetry at workload end (enabled == false under
  /// C2SL_TELEMETRY=0); exported via tel::to_json / tel::to_prometheus.
  tel::MetricsSnapshot metrics;
  /// The store's witness trace at workload end — drained only when
  /// cfg.collect_trace is set (enabled == false otherwise or under
  /// C2SL_TRACE=0); exported via tel::trace_to_json / tel::trace_to_chrome.
  tel::TraceDump trace;
};

/// Runs one workload to completion. Builds its own C2Store from cfg.store.
WorkloadResult run_workload(const WorkloadConfig& cfg);

/// Calibration pass: measures the average primitive invocations (FAA / TAS /
/// swap) per service op of each kind on a PRIVATE single-session store, and
/// fills `snap.prim_profile` / `snap.has_prim_profile`. This is the paper's
/// cost model made empirical — e.g. counter_inc = 1 shard F&I tower + 2
/// digest FAAs. A no-op when telemetry is compiled out (the per-thread
/// primitive counters do not exist). TasRef::reset is not profiled: its
/// generation budget cannot sustain a calibration loop.
void profile_primitives(tel::MetricsSnapshot& snap);

/// Appends one "c2sl-bench-v1" result entry {bench, config, metrics} to `w`
/// (callers wrap entries in a suite document; see write_suite_* in
/// bench/bench_c2store.cpp and bench/json_reporter.h).
void append_result_entry(JsonWriter& w, const std::string& bench,
                         const WorkloadResult& r);

/// One-entry suite document for quick dumps.
std::string result_to_json(const std::string& suite, const std::string& bench,
                           const WorkloadResult& r);

}  // namespace c2sl::wl
