// c2bench self-tests, one ctest entry each: `c2bench_selftest <name>`.
//
//   hist_pinned         histogram quantiles vs exact nearest rank, pinned vectors
//   hist_random         the same on 10^6 random samples
//   stream_determinism  same seed -> byte-identical ops; other seed -> different
//   reject_<workload>   the checker accepts a real run and rejects injected faults
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/histogram.h"
#include "workloads.h"

namespace c2bench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

/// The estimate must fall in the bucket holding the exact order statistic.
void expect_quantiles(std::vector<uint64_t> v, const std::vector<double>& qs) {
  Histogram h;
  for (uint64_t x : v) h.record(x);
  std::sort(v.begin(), v.end());
  for (double q : qs) {
    uint64_t exact = v[c2sl::tel::nearest_rank_index(v.size(), q)];
    double est = h.quantile(q);
    bool same_bucket = est >= 0 &&
                       Histogram::bucket_of(static_cast<uint64_t>(est)) == Histogram::bucket_of(exact);
    if (!same_bucket) {
      std::fprintf(stderr, "q=%g: exact %llu, estimate %.3f\n", q,
                   static_cast<unsigned long long>(exact), est);
    }
    EXPECT(same_bucket);
  }
}

void hist_pinned() {
  const std::vector<double> qs = {0.5, 0.9, 0.99, 0.999, 1.0};
  // The nearest-rank vectors pinned in the store's own tests.
  expect_quantiles({10, 20, 30, 40}, qs);
  expect_quantiles({7}, qs);
  std::vector<uint64_t> hundred, thousand;
  for (uint64_t i = 1; i <= 100; ++i) hundred.push_back(i);
  for (uint64_t i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect_quantiles(hundred, qs);
  expect_quantiles(thousand, qs);
  expect_quantiles({1, 1, 1, 1, 1, 1, 1, 1, 1, 1000000}, qs);
  // Below 64 ns buckets are exact: p50 of {10,20,30,40} is the lower middle.
  Histogram h;
  for (uint64_t x : {10, 20, 30, 40}) h.record(x);
  EXPECT(static_cast<uint64_t>(h.quantile(0.5)) == 20);
  EXPECT(h.max() == 40 && h.count() == 4);
  // Bucket geometry: at most 1/64 of a power of two wide, contiguous.
  for (int b = 1; b < Histogram::kBuckets; ++b) {
    EXPECT(Histogram::bucket_lo(b) == Histogram::bucket_lo(b - 1) + Histogram::bucket_width(b - 1));
    uint64_t lo = Histogram::bucket_lo(b);
    EXPECT(Histogram::bucket_of(lo) == b);
    if (lo >= 64) EXPECT(Histogram::bucket_width(b) * 64 <= (uint64_t{1} << (63 - __builtin_clzll(lo))));
  }
}

void hist_random() {
  std::vector<uint64_t> v;
  v.reserve(1000000);
  for (uint64_t i = 0; i < 1000000; ++i) {
    uint64_t r = draw(12345, 0, i);
    int bits = 1 + static_cast<int>(below(r, 34));
    v.push_back(1 + (draw(12345, 1, i) >> (64 - bits)));
  }
  expect_quantiles(v, {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0});
}

std::string stream_bytes(const Spec& s, uint64_t ops) {
  std::string out;
  for (int t = 0; t < s.threads; ++t) {
    for (uint64_t i = 0; i < ops; ++i) {
      Op op = gen_op(s, t, i);
      int64_t fields[4] = {static_cast<int64_t>(op.kind), op.key, op.key2, op.arg};
      out.append(reinterpret_cast<const char*>(fields), sizeof fields);
      if (op.kind == OpKind::kRequest) {
        for (int j = 0; j < 8; ++j) {
          uint32_t k = request_key(s, t, i, j);
          out.append(reinterpret_cast<const char*>(&k), sizeof k);
        }
        int64_t v = request_write_value(s, t, i);
        out.append(reinterpret_cast<const char*>(&v), sizeof v);
      }
    }
  }
  return out;
}

void stream_determinism() {
  for (int w = 0; w < kWorkloadCount; ++w) {
    auto wl = static_cast<Workload>(w);
    Spec a = make_spec(wl, 7, 4, 1.0);
    Spec b = make_spec(wl, 7, 4, 1.0);
    Spec c = make_spec(wl, 8, 4, 1.0);
    std::string sa = stream_bytes(a, 50000);
    std::string sb = stream_bytes(b, 50000);
    std::string sc = stream_bytes(c, 50000);
    EXPECT(sa.size() == sb.size() && std::memcmp(sa.data(), sb.data(), sa.size()) == 0);
    EXPECT(sa != sc);
  }
}

int test_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n < 2 ? 2 : (n > 4 ? 4 : static_cast<int>(n));
}

/// Runs `wl` small, expects the checker to accept it, then expects every
/// fault to be rejected (each applied to a fresh copy of the observation).
void reject(Workload wl, const std::vector<std::pair<const char*, std::function<void(Observed&)>>>& faults) {
  Spec spec = make_spec(wl, 3, test_threads(), 10.0, 0.005);
  RunOptions opts;
  opts.setups = 1;
  RunResult r = run_workload(spec, opts);
  std::string ok = check(spec, r.obs);
  if (!ok.empty()) std::fprintf(stderr, "real run rejected: %s\n", ok.c_str());
  EXPECT(ok.empty());
  EXPECT(r.failed == 0);
  for (const auto& [name, inject] : faults) {
    Observed bad = r.obs;
    inject(bad);
    std::string why = check(spec, bad);
    std::printf("%s / %s: %s\n", workload_name(wl), name, why.empty() ? "ACCEPTED" : why.c_str());
    EXPECT(!why.empty());
  }
}

void first_read_shard(Observed& o, int64_t delta) {
  for (int64_t& c : o.shard_counter) {
    if (c > 0) {
      c += delta;
      return;
    }
  }
}

void reject_ingest() {
  reject(Workload::kIngest,
         {{"off-by-one inc count", [](Observed& o) { o.counter_sum += 1; }},
          {"off-by-one shard counter", [](Observed& o) { first_read_shard(o, -1); }},
          {"duplicated set item",
           [](Observed& o) {
             EXPECT(!o.taken.empty());
             if (!o.taken.empty()) o.taken.push_back(o.taken.front());
           }},
          {"set item never put",
           [](Observed& o) { o.taken.emplace_back(set_item(0, 1) | (int64_t{1} << 39), 0); }},
          {"two TAS winners on one shard", [](Observed& o) { o.tas_zero.at(0) = 2; }},
          {"counter_sum went backwards", [](Observed& o) { o.aggregate_regressions = 1; }}});
}

void reject_request() {
  reject(Workload::kRequest,
         {{"off-by-one inc count", [](Observed& o) { o.counter_sum -= 1; }},
          {"off-by-one shard counter", [](Observed& o) { first_read_shard(o, 1); }},
          {"lost journal entry", [](Observed& o) { o.journal_tickets -= 1; }},
          {"TAS read a set that never happened", [](Observed& o) { o.tas_read_nonzero = 1; }}});
}

void reject_audit() {
  reject(Workload::kAudit,
         {{"torn snapshot (debit without credit)", [](Observed& o) { o.final_snapshot.at(0) -= 7; }},
          {"torn live snapshot", [](Observed& o) { o.torn_snapshots = 1; }},
          {"balance moved between buckets",
           [](Observed& o) {
             o.final_snapshot.at(0) += 1;
             o.final_snapshot.at(1) -= 1;
           }}});
}

void reject_grow() {
  reject(Workload::kGrow,
         {{"off-by-one inc count", [](Observed& o) { o.counter_sum += 1; }},
          {"resize not installed", [](Observed& o) { o.resizes_failed = 1; }},
          {"short of the final shard count", [](Observed& o) { o.shard_count = 32; }}});
}

}  // namespace
}  // namespace c2bench

int main(int argc, char** argv) {
  using namespace c2bench;
  const std::vector<std::pair<std::string, void (*)()>> tests = {
      {"hist_pinned", hist_pinned},       {"hist_random", hist_random},
      {"stream_determinism", stream_determinism},
      {"reject_ingest", reject_ingest},   {"reject_request", reject_request},
      {"reject_audit", reject_audit},     {"reject_grow", reject_grow}};
  int ran = 0;
  for (const auto& [name, fn] : tests) {
    if (argc > 1 && name != argv[1]) continue;
    fn();
    ++ran;
  }
  if (ran == 0) {
    std::fprintf(stderr, "unknown test %s\n", argc > 1 ? argv[1] : "");
    return 2;
  }
  std::printf("%s\n", g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 1;
}
