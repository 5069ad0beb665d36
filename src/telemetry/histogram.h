// Log-bucketed latency histograms + the repo's single nearest-rank quantile
// implementation.
//
// The rule (the ceil(q*count)-th order statistic) is pinned on known vectors
// by TelemetryHistogram.NearestRankIndexPinnedVectors, and through the
// bucketed upper bounds by the other histogram tests.
//
// The live histogram is lane-local and single-writer (lanes are single-owner
// by construction — the service layer's whole point), so record() is a relaxed
// load + relaxed store on a private cache line: a plain register write in the
// paper's taxonomy, no RMW. Readers scan the cells racily; a histogram is an
// approximate object by nature and the racy read loses at most in-flight
// increments (a diagnostic nothing may branch on — see docs/PROOFS.md).
//
// Buckets are powers of two: bucket 0 holds <= 0ns (clock glitches), bucket
// b >= 1 holds [2^(b-1), 2^b) ns. 64 value buckets cover the full int64 range;
// quantile estimates report the bucket's inclusive upper bound, so estimates
// are conservative (never under-report a latency).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "telemetry/prim_profile.h"  // C2SL_CAPTURE gate + flavour namespaces

#if C2SL_CAPTURE
#include <atomic>
#endif

namespace c2sl::tel {

/// Nearest-rank order-statistic index: for a sorted sample of `count`
/// elements, quantile q is element number ceil(q * count) (1-based), clamped
/// to [1, count]; this returns the 0-based index. The exact rule PR 4 pinned:
/// p0 -> first element, p100 -> last, never out of range.
inline size_t nearest_rank_index(size_t count, double q) {
  if (count == 0) return 0;
  double scaled = q * static_cast<double>(count);
  auto rank = static_cast<size_t>(scaled);
  if (static_cast<double>(rank) < scaled) ++rank;  // ceil for non-integers
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  return rank - 1;
}

inline constexpr int kHistBuckets = 65;  // bucket 0 + one per power of two

/// Bucket index for a nanosecond value: 0 for <= 0, else 1 + floor(log2 v).
inline constexpr int hist_bucket_of(int64_t ns) {
  if (ns <= 0) return 0;
  return std::bit_width(static_cast<uint64_t>(ns));
}

/// Inclusive upper bound of bucket b: 0, 1, 3, 7, ... (2^b - 1).
inline constexpr int64_t hist_bucket_upper(int b) {
  if (b <= 0) return 0;
  if (b >= 63) return INT64_MAX;
  return static_cast<int64_t>((uint64_t{1} << b) - 1);
}

/// Plain-data histogram snapshot: what exporters and tests consume. Quantile
/// estimates apply the nearest-rank rule over bucket counts and report the
/// containing bucket's upper bound.
struct HistogramSnapshot {
  uint64_t counts[kHistBuckets] = {};

  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t c : counts) t += c;
    return t;
  }

  /// Nearest-rank quantile estimate (inclusive bucket upper bound), 0 if empty.
  int64_t quantile_upper_ns(double q) const {
    uint64_t n = total();
    if (n == 0) return 0;
    uint64_t target = static_cast<uint64_t>(nearest_rank_index(n, q)) + 1;
    uint64_t seen = 0;
    for (int b = 0; b < kHistBuckets; ++b) {
      seen += counts[b];
      if (seen >= target) return hist_bucket_upper(b);
    }
    return hist_bucket_upper(kHistBuckets - 1);
  }

  int64_t max_upper_ns() const {
    for (int b = kHistBuckets - 1; b >= 0; --b) {
      if (counts[b] != 0) return hist_bucket_upper(b);
    }
    return 0;
  }

  void merge(const HistogramSnapshot& other) {
    for (int b = 0; b < kHistBuckets; ++b) counts[b] += other.counts[b];
  }
};

#if C2SL_CAPTURE

inline namespace capture_on {

/// Single-writer log-bucketed histogram. The writer (the lane owner) bumps a
/// private relaxed cell; concurrent snapshot() readers see a racy but
/// monotone view. Cells are std::atomic only so TSAN accepts the racy read —
/// the write is load+store, never an RMW (the no-CAS discipline applies to
/// telemetry too).
class LatencyHistogram {
 public:
  void record(int64_t ns) {
    std::atomic<uint64_t>& cell = counts_[hist_bucket_of(ns)];
    // c2sl-atomic: store relaxed, load relaxed — single-writer bucket bump;
    // load+store, never an RMW (the no-CAS discipline applies here too)
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    for (int b = 0; b < kHistBuckets; ++b) {
      // c2sl-atomic: load relaxed — racy-but-monotone snapshot read
      s.counts[b] = counts_[b].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::atomic<uint64_t> counts_[kHistBuckets] = {};
};

}  // namespace capture_on

#else  // !C2SL_CAPTURE

inline namespace capture_off {

/// Disabled flavour: stateless, constexpr-evaluable (the structural proof in
/// tests/telemetry_off_test.cpp calls record() inside constant evaluation).
class LatencyHistogram {
 public:
  constexpr void record(int64_t) const {}
  HistogramSnapshot snapshot() const { return HistogramSnapshot{}; }
};

}  // namespace capture_off

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
