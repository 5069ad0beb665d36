// The telemetry layer's verification story, in three acts:
//
//  1. CHECKER: an op counter kept in lane-local cells, read by one pass over
//     them — what metrics_snapshot() does for ops_total — is REFUTED
//     strongly linearizable (TelemetrySim.LaneScanReadNotStronglyLinearizable
//     in tests/service_sim_test.cpp, on the counter twin's one-pass read).
//     The verified alternative, one shared FAA word per op read by FAA(0), is
//     the counter-sum digest the C2StoreSim.CounterSumDigest* trees check.
//     That refutation is the reason ops_total is a diagnostic nothing may
//     branch on, not a digest read the hot path pays a shared RMW for (the
//     §3.2 argument, applied to telemetry).
//
//  2. NATIVE exactness: on a live C2Store, the op-kind counters and their
//     total count every instrumented op exactly at quiescence, open-session
//     waits land in the open_wait histogram, and the exporter emits
//     well-formed c2sl-metrics-v1 JSON. (The post-mortem
//     last-N ops are the trace tail: tests/assert_hook_test.cpp.)
//
//  3. HISTOGRAM unit vectors: the nearest-rank rule and the log-bucket
//     geometry, on small known vectors.
//
// A small multi-threaded stress rides along so the TSAN job exercises the
// racy snapshot reads against concurrent lane writers. Sections 2 and the
// live-histogram case need the live layer, so a C2SL_CAPTURE=0 build compiles
// them out (tests/telemetry_off_test.cpp covers that flavour).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "service/c2store.h"
#include "telemetry/export.h"
#include "telemetry/histogram.h"
#include "telemetry/telemetry.h"

namespace c2sl {
namespace {

// --- 2. native exactness ----------------------------------------------------

#if C2SL_CAPTURE

svc::C2StoreConfig small_config() {
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 4;
  cfg.max_threads = 4;
  cfg.max_value = 15;
  cfg.tas_max_resets = 14;
  return cfg;
}

TEST(TelemetryNative, CountsEveryInstrumentedOpExactly) {
  svc::C2Store store(small_config());
  {
    svc::C2Session s = store.open_session();
    svc::MaxRef mx = s.max(uint64_t{1});
    svc::CounterRef ctr = s.counter(uint64_t{2});
    svc::TasRef tas = s.tas(uint64_t{3});
    svc::SetRef set = s.set(uint64_t{4});
    for (int i = 0; i < 5; ++i) mx.write(i % 15);
    for (int i = 0; i < 4; ++i) mx.read();
    for (int i = 0; i < 3; ++i) ctr.inc();
    for (int i = 0; i < 2; ++i) ctr.read();
    tas.test_and_set();
    tas.read();
    set.put(7);
    set.take();
    s.global_max();
    s.counter_sum();
  }
  tel::MetricsSnapshot m = store.metrics_snapshot();
  ASSERT_TRUE(m.enabled);
  auto count = [&](tel::TelOp op) { return m.op_counts[static_cast<int>(op)]; };
  EXPECT_EQ(count(tel::TelOp::kMaxWrite), 5u);
  EXPECT_EQ(count(tel::TelOp::kMaxRead), 4u);
  EXPECT_EQ(count(tel::TelOp::kCounterInc), 3u);
  EXPECT_EQ(count(tel::TelOp::kCounterRead), 2u);
  EXPECT_EQ(count(tel::TelOp::kTasSet), 1u);
  EXPECT_EQ(count(tel::TelOp::kTasRead), 1u);
  EXPECT_EQ(count(tel::TelOp::kSetPut), 1u);
  EXPECT_EQ(count(tel::TelOp::kSetTake), 1u);
  EXPECT_EQ(count(tel::TelOp::kGlobalMax), 1u);
  EXPECT_EQ(count(tel::TelOp::kCounterSum), 1u);
  EXPECT_EQ(count(tel::TelOp::kSessionOpen), 1u);
  // With all sessions closed the lane scan has quiesced: the total is every
  // instrumented op (21 = the sum above).
  EXPECT_EQ(m.ops_total, 21);
  // `lanes` counts materialised lane BLOCKS (the segmented spine materialises
  // whole segments), not sessions: at least the one used lane, at most all.
  EXPECT_GE(m.lanes, 1);
  EXPECT_LE(m.lanes, 4);
  // Shard events: 4 distinct keys may collide on <= 4 shards.
  EXPECT_GE(m.events[static_cast<int>(tel::TelEvent::kShardInit)], 1u);
  EXPECT_LE(m.events[static_cast<int>(tel::TelEvent::kShardInit)], 4u);
}

TEST(TelemetryNative, OpenWaitLandsInHistogram) {
  svc::C2Store store(small_config());
  {
    svc::C2Session a = store.open_session();
    svc::C2Session b = store.open_session();
  }
  tel::MetricsSnapshot m = store.metrics_snapshot();
  EXPECT_EQ(m.open_wait.total(), 2u);
  EXPECT_EQ(m.op_counts[static_cast<int>(tel::TelOp::kSessionOpen)], 2u);
  // Uncontended opens wait ~0; the estimate must stay conservative (upper
  // bounds), so it can never be negative.
  EXPECT_GE(m.open_wait.quantile_upper_ns(0.5), 0);
}

TEST(TelemetryNative, ExporterEmitsWellFormedDocument) {
  svc::C2Store store(small_config());
  {
    svc::C2Session s = store.open_session();
    svc::CounterRef ctr = s.counter(uint64_t{9});
    for (int i = 0; i < 40; ++i) ctr.inc();  // > one sample period
  }
  tel::MetricsSnapshot m = store.metrics_snapshot();
  std::string json = tel::to_json(m, "telemetry_test");
  EXPECT_NE(json.find("\"schema\":\"c2sl-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"telemetry_test\""), std::string::npos);
  EXPECT_NE(json.find("\"telemetry_enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"counter_inc\":40"), std::string::npos);
  EXPECT_NE(json.find("\"ops_total\":41"), std::string::npos);  // + open
  EXPECT_NE(json.find("\"session\""), std::string::npos);
}

// 1-in-kLatencySamplePeriod ops pay the clock; the histogram must hold
// exactly the sampled fraction, not every op.
TEST(TelemetryNative, LatencySamplingIsPeriodic) {
  svc::C2Store store(small_config());
  constexpr int kOps = 32 * 4;  // 4 full sample periods
  {
    svc::C2Session s = store.open_session();
    svc::MaxRef mx = s.max(uint64_t{1});
    for (int i = 0; i < kOps; ++i) mx.read();
  }
  tel::MetricsSnapshot m = store.metrics_snapshot();
  uint64_t sampled =
      m.op_latency[static_cast<int>(tel::TelOp::kMaxRead)].total();
  EXPECT_EQ(sampled, kOps / tel::kLatencySamplePeriod);
}

TEST(TelemetryNative, SnapshotRacesCleanlyWithWriters) {
  svc::C2Store store(small_config());
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      svc::C2Session s = store.open_session();
      svc::CounterRef ctr = s.counter(static_cast<uint64_t>(t));
      for (int i = 0; i < kOps; ++i) ctr.inc();
    });
  }
  // Concurrent snapshot reader: racy by design, must be TSAN-clean. Each
  // lane cell is monotone and this thread reads it coherently, so successive
  // totals never go backwards and never pass the final count.
  int64_t last = 0;
  for (int r = 0; r < 50; ++r) {
    tel::MetricsSnapshot m = store.metrics_snapshot();
    EXPECT_GE(m.ops_total, last);
    EXPECT_LE(m.ops_total, kThreads * (kOps + 1));
    uint64_t counted = 0;
    for (uint64_t c : m.op_counts) counted += c;
    EXPECT_EQ(static_cast<uint64_t>(m.ops_total), counted);
    last = m.ops_total;
  }
  for (std::thread& w : workers) w.join();
  tel::MetricsSnapshot m = store.metrics_snapshot();
  // kOps incs + 1 session_open per thread, exactly.
  EXPECT_EQ(m.ops_total, kThreads * (kOps + 1));
  EXPECT_EQ(m.op_counts[static_cast<int>(tel::TelOp::kCounterInc)],
            static_cast<uint64_t>(kThreads) * kOps);
}

#endif  // C2SL_CAPTURE

// --- 3. histogram / quantile unit vectors -----------------------------------

TEST(TelemetryHistogram, BucketGeometry) {
  EXPECT_EQ(tel::hist_bucket_of(-5), 0);
  EXPECT_EQ(tel::hist_bucket_of(0), 0);
  EXPECT_EQ(tel::hist_bucket_of(1), 1);
  EXPECT_EQ(tel::hist_bucket_of(2), 2);
  EXPECT_EQ(tel::hist_bucket_of(3), 2);
  EXPECT_EQ(tel::hist_bucket_of(4), 3);
  EXPECT_EQ(tel::hist_bucket_of(1023), 10);
  EXPECT_EQ(tel::hist_bucket_of(1024), 11);
  EXPECT_EQ(tel::hist_bucket_of(INT64_MAX), 63);
  EXPECT_EQ(tel::hist_bucket_upper(0), 0);
  EXPECT_EQ(tel::hist_bucket_upper(1), 1);
  EXPECT_EQ(tel::hist_bucket_upper(2), 3);
  EXPECT_EQ(tel::hist_bucket_upper(10), 1023);
  EXPECT_EQ(tel::hist_bucket_upper(63), INT64_MAX);
  // Every value lands in the bucket whose range contains it.
  for (int64_t v : {1, 2, 3, 7, 8, 1000, 123456789}) {
    int b = tel::hist_bucket_of(v);
    EXPECT_LE(v, tel::hist_bucket_upper(b));
    EXPECT_GT(v, tel::hist_bucket_upper(b - 1));
  }
}

// The PR 4 nearest-rank vectors: even-count p50 is the lower middle sample,
// and small sample sets resolve p99 to the 99th order statistic, not max.
TEST(TelemetryHistogram, NearestRankIndexPinnedVectors) {
  EXPECT_EQ(tel::nearest_rank_index(4, 0.50), 1u);   // lower middle sample
  EXPECT_EQ(tel::nearest_rank_index(4, 0.90), 3u);
  EXPECT_EQ(tel::nearest_rank_index(4, 0.99), 3u);
  EXPECT_EQ(tel::nearest_rank_index(1, 0.50), 0u);
  EXPECT_EQ(tel::nearest_rank_index(1, 0.999), 0u);
  EXPECT_EQ(tel::nearest_rank_index(100, 0.50), 49u);
  EXPECT_EQ(tel::nearest_rank_index(100, 0.99), 98u);  // 99th, not max
  EXPECT_EQ(tel::nearest_rank_index(100, 0.999), 99u);
  EXPECT_EQ(tel::nearest_rank_index(1000, 0.50), 499u);
  EXPECT_EQ(tel::nearest_rank_index(1000, 0.999), 998u);
  EXPECT_EQ(tel::nearest_rank_index(10, 0.90), 8u);  // 9th order statistic
  EXPECT_EQ(tel::nearest_rank_index(0, 0.50), 0u);   // empty guard
}

TEST(TelemetryHistogram, QuantileUpperBoundsOnKnownCounts) {
  tel::HistogramSnapshot h;
  // 4 samples of 10ns (bucket 4: [8,16)), 4 of 100ns (bucket 7: [64,128)),
  // 2 of 1000ns (bucket 10: [512,1024)).
  h.counts[tel::hist_bucket_of(10)] = 4;
  h.counts[tel::hist_bucket_of(100)] = 4;
  h.counts[tel::hist_bucket_of(1000)] = 2;
  EXPECT_EQ(h.total(), 10u);
  // Nearest rank over counts: rank 5 (p50) falls in the 100ns bucket, rank 9
  // (p90) in the 1000ns bucket; estimates report inclusive bucket uppers.
  EXPECT_EQ(h.quantile_upper_ns(0.50), 127);
  EXPECT_EQ(h.quantile_upper_ns(0.90), 1023);
  EXPECT_EQ(h.quantile_upper_ns(0.99), 1023);
  EXPECT_EQ(h.max_upper_ns(), 1023);
  // Conservative: the estimate never under-reports the true sample.
  EXPECT_GE(h.quantile_upper_ns(0.50), 100);
  tel::HistogramSnapshot empty;
  EXPECT_EQ(empty.quantile_upper_ns(0.5), 0);
  EXPECT_EQ(empty.max_upper_ns(), 0);
}

#if C2SL_CAPTURE

TEST(TelemetryHistogram, LiveRecordMatchesBucketRule) {
  tel::LatencyHistogram h;
  h.record(10);
  h.record(100);
  h.record(0);
  tel::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[tel::hist_bucket_of(10)], 1u);
  EXPECT_EQ(s.counts[tel::hist_bucket_of(100)], 1u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.total(), 3u);
}

#endif  // C2SL_CAPTURE

}  // namespace
}  // namespace c2sl
