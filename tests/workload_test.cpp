// Tests for the workload layer: key distributions (determinism, skew, burst
// phases), op mixes, latency summarisation, the JSON writer, and an
// end-to-end engine smoke run.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "workload/distributions.h"
#include "workload/engine.h"
#include "workload/json_writer.h"
#include "workload/latency.h"
#include "workload/op_mix.h"

namespace c2sl {
namespace {

TEST(Distributions, UniformBoundsAndDeterminism) {
  wl::UniformKeys dist(100);
  Rng a(42), b(42);
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t k = dist.next(a, i);
    EXPECT_LT(k, 100u);
    EXPECT_EQ(k, dist.next(b, i)) << "same seed must give same keys";
  }
}

TEST(Distributions, ZipfianCdfIsAProperDistribution) {
  wl::ZipfianKeys dist(1000, 0.99, /*scramble=*/false);
  double acc = 0.0;
  for (uint64_t r = 0; r < 1000; ++r) {
    double m = dist.mass(r);
    EXPECT_GT(m, 0.0);
    if (r > 0) {
      EXPECT_LE(m, dist.mass(r - 1) + 1e-12) << "mass must be non-increasing";
    }
    acc += m;
  }
  EXPECT_NEAR(acc, 1.0, 1e-9);
}

TEST(Distributions, ZipfianIsSkewed) {
  const uint64_t space = 1000;
  wl::ZipfianKeys dist(space, 0.99, /*scramble=*/false);
  Rng rng(7);
  std::map<uint64_t, int> freq;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++freq[dist.next(rng, static_cast<uint64_t>(i))];
  // Rank 0 is the hottest; it should dwarf the uniform share of draws/space.
  EXPECT_GT(freq[0], 10 * draws / static_cast<int>(space));
  // And the top-10 ranks should hold a large constant fraction of all draws.
  int top10 = 0;
  for (uint64_t r = 0; r < 10; ++r) top10 += freq[r];
  EXPECT_GT(top10, draws / 5);
}

TEST(Distributions, ZipfianScrambleScattersButKeepsSkew) {
  const uint64_t space = 1000;
  wl::ZipfianKeys dist(space, 0.99, /*scramble=*/true);
  Rng rng(7);
  std::map<uint64_t, int> freq;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    uint64_t k = dist.next(rng, static_cast<uint64_t>(i));
    ASSERT_LT(k, space);
    ++freq[k];
  }
  int hottest = 0;
  for (const auto& [k, n] : freq) {
    (void)k;
    hottest = std::max(hottest, n);
  }
  EXPECT_GT(hottest, 10 * draws / static_cast<int>(space)) << "skew must survive scatter";
}

TEST(Distributions, HotKeyBurstPhases) {
  const uint64_t space = 10000, hot_set = 10, period = 100;
  wl::HotKeyBurstKeys dist(space, hot_set, 0.9, period);
  Rng rng(3);
  int hot_phase_hits = 0, cold_phase_hits = 0;
  const int per_phase = 5000;
  for (int i = 0; i < per_phase; ++i) {
    // op indices 0..period-1 modulo 2*period are the hot phase
    uint64_t hot_op = (static_cast<uint64_t>(i) / period) * 2 * period +
                      static_cast<uint64_t>(i) % period;
    uint64_t cold_op = hot_op + period;
    ASSERT_TRUE(dist.in_hot_phase(hot_op));
    ASSERT_FALSE(dist.in_hot_phase(cold_op));
    if (dist.next(rng, hot_op) < hot_set) ++hot_phase_hits;
    if (dist.next(rng, cold_op) < hot_set) ++cold_phase_hits;
  }
  EXPECT_GT(hot_phase_hits, per_phase / 2) << "hot phase must hit the hot set often";
  EXPECT_LT(cold_phase_hits, per_phase / 10) << "cold phase must be ~uniform";
}

TEST(Distributions, FactoryByName) {
  EXPECT_EQ(wl::make_dist("uniform", 10)->name(), "uniform");
  EXPECT_EQ(wl::make_dist("zipfian", 10)->name(), "zipfian");
  EXPECT_EQ(wl::make_dist("hotburst", 10)->name(), "hotburst");
  EXPECT_THROW(wl::make_dist("nope", 10), PreconditionError);
}

// The per-rank masses must conserve probability and decay monotonically even
// deep into the tail, where the naive largest-term-first accumulation loses
// the terms to float rounding (the retired code papered over the drift with a
// forced cdf.back()=1.0). With Kahan compensation each stored partial is
// accurate to ~1 ulp, so the checks below can be tight.
TEST(Distributions, ZipfianMassConservationDeepTail) {
  const uint64_t space = uint64_t{1} << 20;
  for (double theta : {0.99, 1.2}) {
    wl::ZipfianKeys dist(space, theta, /*scramble=*/false);
    // Telescoped conservation: the masses sum to the final CDF entry, which
    // must be exactly 1.0 (not merely close) now that nothing is papered.
    long double acc = 0.0L;
    double prev = dist.mass(0);
    for (uint64_t r = 0; r < space; ++r) {
      double m = dist.mass(r);
      EXPECT_GT(m, 0.0) << "rank " << r << " lost its mass to rounding";
      EXPECT_LE(m, prev) << "mass must be non-increasing at rank " << r;
      prev = m;
      acc += m;
    }
    EXPECT_NEAR(static_cast<double>(acc), 1.0, 1e-12) << "theta " << theta;
    // Tail accuracy: compare far-tail masses against the directly computed
    // term/total in long double. Plain double accumulation fails this by
    // orders of magnitude; compensated summation passes at 1e-6 relative.
    long double total = 0.0L;
    for (uint64_t r = 0; r < space; ++r) {
      total += 1.0L / powl(static_cast<long double>(r + 1),
                           static_cast<long double>(theta));
    }
    for (uint64_t r : {space - 1, space / 2, space / 3}) {
      long double expected = 1.0L / powl(static_cast<long double>(r + 1),
                                         static_cast<long double>(theta)) /
                             total;
      EXPECT_NEAR(dist.mass(r) / static_cast<double>(expected), 1.0, 1e-6)
          << "rank " << r << " theta " << theta;
    }
  }
}

TEST(OpMix, NamedMixesAreNormalisedAndPickable) {
  for (const char* name :
       {"read_heavy", "write_heavy", "mixed", "sum_heavy", "session_churn",
        "snapshot_heavy", "transfer_audit", "resize_storm"}) {
    wl::OpMix mix = wl::OpMix::by_name(name);
    EXPECT_EQ(mix.name, name);
    EXPECT_NEAR(mix.total_weight(), 1.0, 1e-9);
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
      int k = static_cast<int>(mix.pick(rng));
      EXPECT_GE(k, 0);
      EXPECT_LT(k, wl::kOpKindCount);
    }
  }
}

TEST(OpMix, PickTracksWeights) {
  wl::OpMix mix{"test", {{wl::OpKind::kMaxRead, 0.9}, {wl::OpKind::kMaxWrite, 0.1}}};
  Rng rng(5);
  int reads = 0;
  const int draws = 10000;
  for (int i = 0; i < draws; ++i) {
    if (mix.pick(rng) == wl::OpKind::kMaxRead) ++reads;
  }
  EXPECT_GT(reads, draws * 85 / 100);
  EXPECT_LT(reads, draws * 95 / 100);
}

TEST(Latency, ExactPercentilesOnKnownData) {
  std::vector<int64_t> samples;
  for (int64_t i = 1; i <= 1000; ++i) samples.push_back(i);  // 1..1000 ns
  wl::LatencyStats s = wl::summarize_latencies(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min_ns, 1);
  EXPECT_EQ(s.max_ns, 1000);
  // Nearest-rank on 1..1000 is exact: the ceil(q*1000)-th order statistic.
  EXPECT_EQ(s.p50_ns, 500);
  EXPECT_EQ(s.p90_ns, 900);
  EXPECT_EQ(s.p99_ns, 990);
  EXPECT_EQ(s.p999_ns, 999);
  EXPECT_NEAR(s.mean_ns, 500.5, 0.01);
}

// Pins the nearest-rank quantile rule (ceil(q*count)-th order statistic) on
// small known vectors — exactly where the retired q*(count-1)+0.5 rounding
// misbehaved: even-count p50 picked the UPPER middle sample, and p99/p999
// collapsed onto max one rank early on small sample sets.
TEST(Latency, NearestRankRuleOnSmallKnownVectors) {
  std::vector<int64_t> four = {10, 20, 30, 40};
  wl::LatencyStats s4 = wl::summarize_latencies(four);
  EXPECT_EQ(s4.p50_ns, 20) << "even-count p50 is the lower middle sample";
  EXPECT_EQ(s4.p90_ns, 40);
  EXPECT_EQ(s4.p99_ns, 40);

  std::vector<int64_t> one = {7};
  wl::LatencyStats s1 = wl::summarize_latencies(one);
  EXPECT_EQ(s1.p50_ns, 7);
  EXPECT_EQ(s1.p999_ns, 7);

  // 1..100: p99 must resolve to the 99th sample, NOT max — the small-count
  // collapse the old rounding caused. p999 still has to saturate at max (100
  // samples cannot resolve a 99.9th percentile; that is genuine, not drift).
  std::vector<int64_t> hundred;
  for (int64_t i = 1; i <= 100; ++i) hundred.push_back(i);
  wl::LatencyStats s100 = wl::summarize_latencies(hundred);
  EXPECT_EQ(s100.p50_ns, 50);
  EXPECT_EQ(s100.p90_ns, 90);
  EXPECT_EQ(s100.p99_ns, 99) << "p99 of 100 samples is the 99th, not max";
  EXPECT_EQ(s100.p999_ns, 100);

  // Order statistics are rank-based, not value-interpolated: a wild max must
  // not drag the tail quantiles with it.
  std::vector<int64_t> skew = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1000000};
  wl::LatencyStats sk = wl::summarize_latencies(skew);
  EXPECT_EQ(sk.p50_ns, 1);
  EXPECT_EQ(sk.p90_ns, 1) << "p90 of 10 samples is the 9th order statistic";
  EXPECT_EQ(sk.p99_ns, 1000000);
}

TEST(Latency, EmptyIsZeroed) {
  std::vector<int64_t> none;
  wl::LatencyStats s = wl::summarize_latencies(none);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99_ns, 0);
}

TEST(JsonWriter, NestedDocumentsAndEscaping) {
  wl::JsonWriter w;
  w.begin_object();
  w.field("name", "a\"b\\c\n");
  w.field("n", int64_t{-3});
  w.field("ok", true);
  w.key("arr").begin_array().value(int64_t{1}).value(int64_t{2}).end_array();
  w.key("inner").begin_object().field("x", 1.5).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":-3,\"ok\":true,"
            "\"arr\":[1,2],\"inner\":{\"x\":1.5}}");
}

// Control characters below 0x20 must never reach the output raw — a label or
// string key containing one would emit invalid JSON that bench_diff.py (and
// any json.load) rejects. Common ones use the short escapes; the rest get
// \u00XX. Round-trip shape is pinned byte-for-byte.
TEST(JsonWriter, ControlCharactersEscapedAsUnicode) {
  wl::JsonWriter w;
  w.begin_object();
  w.field("label", "a\x01" "b\x1f" "c\td\ne\rf");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"label\":\"a\\u0001b\\u001fc\\td\\ne\\rf\"}");

  // Keys are escaped through the same path as values.
  wl::JsonWriter wk;
  wk.begin_object();
  wk.field("bad\x02key", int64_t{1});
  wk.end_object();
  EXPECT_EQ(wk.str(), "{\"bad\\u0002key\":1}");

  // Every byte below 0x20 is covered — none may appear raw in the output.
  std::string all;
  for (char c = 1; c < 0x20; ++c) all += c;
  wl::JsonWriter wa;
  wa.begin_object();
  wa.field("all", all);
  wa.end_object();
  for (char c = 1; c < 0x20; ++c) {
    EXPECT_EQ(wa.str().find(c), std::string::npos)
        << "raw control byte " << static_cast<int>(c) << " leaked into JSON";
  }
}

TEST(JsonWriter, ArraysOfObjects) {
  wl::JsonWriter w;
  w.begin_array();
  w.begin_object().field("a", int64_t{1}).end_object();
  w.begin_object().field("b", int64_t{2}).end_object();
  w.end_array();
  EXPECT_EQ(w.str(), "[{\"a\":1},{\"b\":2}]");
}

TEST(Engine, SmokeRunAccountsForEveryOperation) {
  wl::WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 300;
  cfg.key_space = 64;
  cfg.dist = "uniform";
  cfg.mix = wl::OpMix::mixed();
  cfg.seed = 9;
  cfg.store.initial_shards = 4;
  wl::WorkloadResult r = wl::run_workload(cfg);
  EXPECT_EQ(r.total_ops, 600u);
  EXPECT_EQ(r.latency.count, 600u);
  uint64_t counted = 0;
  for (int k = 0; k < wl::kOpKindCount; ++k) counted += r.per_kind[k];
  EXPECT_EQ(counted, 600u);
  EXPECT_GT(r.throughput_ops_s, 0.0);
  EXPECT_GE(r.final_counter_sum, 0);
  EXPECT_EQ(r.final_counter_sum, static_cast<int64_t>(r.per_kind[static_cast<int>(
                                     wl::OpKind::kCounterInc)]));
}

TEST(Engine, TransferAuditMixConservesUnderConcurrency) {
  // The conservation suite at engine level: the kSnapshot case itself
  // C2SL_CHECKs that every cut balances, and run_workload re-audits a full
  // replay at quiescence — reaching the end of this test IS the assertion.
  // (TSAN/ASAN CI runs this file, so the audit also runs sanitized.)
  wl::WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 400;
  cfg.key_space = 64;
  cfg.dist = "uniform";
  cfg.mix = wl::OpMix::transfer_audit();
  cfg.seed = 11;
  cfg.store.initial_shards = 8;
  wl::WorkloadResult r = wl::run_workload(cfg);
  EXPECT_GT(r.per_kind[static_cast<int>(wl::OpKind::kTransfer)], 0u);
  EXPECT_GT(r.per_kind[static_cast<int>(wl::OpKind::kSnapshot)], 0u);
  // Only transfers journal in this mix; snapshots and reads never do.
  EXPECT_EQ(r.journal_tickets,
            static_cast<int64_t>(r.per_kind[static_cast<int>(wl::OpKind::kTransfer)]));
  // Transfers move balance but never create it.
  EXPECT_EQ(r.final_counter_sum, 0);
}

TEST(Engine, SnapshotHeavyMixJournalsOnlyIncs) {
  wl::WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 300;
  cfg.key_space = 64;
  cfg.dist = "uniform";
  cfg.mix = wl::OpMix::snapshot_heavy();
  cfg.seed = 13;
  cfg.store.initial_shards = 8;
  wl::WorkloadResult r = wl::run_workload(cfg);
  EXPECT_GT(r.per_kind[static_cast<int>(wl::OpKind::kSnapshot)], 0u);
  // Incs journal; snapshots do not.
  EXPECT_EQ(r.journal_tickets,
            static_cast<int64_t>(r.per_kind[static_cast<int>(wl::OpKind::kCounterInc)]));
  EXPECT_EQ(r.final_counter_sum, static_cast<int64_t>(r.per_kind[static_cast<int>(
                                     wl::OpKind::kCounterInc)]));
}

// Live resizes under keyed traffic: run_workload itself C2SL_CHECKs that the
// sum digest equals the inc count across every migration cut.
TEST(Engine, ResizeStormGrowsTheStoreLive) {
  wl::WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 400;
  cfg.key_space = 64;
  cfg.dist = "zipfian";
  cfg.mix = wl::OpMix::resize_storm();
  cfg.resize_every = 50;
  cfg.seed = 17;
  cfg.store.initial_shards = 4;
  wl::WorkloadResult r = wl::run_workload(cfg);
  EXPECT_GT(r.resizes_done, 0);
  EXPECT_EQ(r.final_shards, 4 << r.resizes_done);
  EXPECT_EQ(r.final_counter_sum, static_cast<int64_t>(r.per_kind[static_cast<int>(
                                     wl::OpKind::kCounterInc)]));
}

TEST(Engine, JsonEntryCarriesTheSchema) {
  wl::WorkloadConfig cfg;
  cfg.threads = 1;
  cfg.ops_per_thread = 100;
  cfg.key_space = 16;
  cfg.store.initial_shards = 2;
  wl::WorkloadResult r = wl::run_workload(cfg);
  std::string doc = wl::result_to_json("test_suite", "unit/smoke", r);
  for (const char* needle :
       {"\"schema\":\"c2sl-bench-v1\"", "\"suite\":\"test_suite\"",
        "\"bench\":\"unit/smoke\"", "\"throughput_ops_per_s\"", "\"latency_ns\"",
        "\"p99\"", "\"op_counts\"", "\"initialized_shards\""}) {
    EXPECT_NE(doc.find(needle), std::string::npos) << needle << "\nin: " << doc;
  }
}

TEST(Engine, DeterministicOpSequencesAcrossRuns) {
  wl::WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 400;
  cfg.key_space = 32;
  cfg.dist = "zipfian";
  cfg.mix = wl::OpMix::write_heavy();
  cfg.seed = 77;
  cfg.store.initial_shards = 4;
  wl::WorkloadResult a = wl::run_workload(cfg);
  wl::WorkloadResult b = wl::run_workload(cfg);
  for (int k = 0; k < wl::kOpKindCount; ++k) {
    EXPECT_EQ(a.per_kind[k], b.per_kind[k]) << "op mix must replay from the seed";
  }
  EXPECT_EQ(a.final_counter_sum, b.final_counter_sum);
}

// Session churn with fewer lanes than threads: blocking opens must complete
// every cycle (no op lost to a parked open), count every cycle under
// kSessionChurn, and conserve the counter traffic run through the churned
// sessions. The engine must NOT raise the lane count to the thread count in
// this mix — the contention is the scenario.
TEST(Engine, SessionChurnConservesUnderLaneContention) {
  wl::WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 250;
  cfg.key_space = 64;
  cfg.dist = "uniform";
  cfg.mix = wl::OpMix::session_churn();
  cfg.seed = 7;
  cfg.store.initial_shards = 4;
  cfg.store.max_threads = 2;  // lanes < threads: every open contends
  wl::WorkloadResult r = wl::run_workload(cfg);
  EXPECT_EQ(r.cfg.store.max_threads, 2)
      << "churn mode must keep the configured lane count";
  EXPECT_EQ(r.total_ops, 4u * 250u);
  EXPECT_EQ(r.per_kind[static_cast<int>(wl::OpKind::kSessionChurn)], 4u * 250u);
  EXPECT_EQ(r.final_counter_sum, 4 * 250)
      << "every churned session must land exactly one inc";
}

}  // namespace
}  // namespace c2sl
