// c2bench core: set-up, the closed-loop measured phase, and the
// sequential-model checker of each workload's final state.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "stream.h"

namespace c2sl::svc {
struct C2StoreConfig;
}

namespace c2bench {

/// The store configuration every c2bench store uses: `threads` lanes, the
/// widest max register that packs (63 / threads values), no TAS resets.
c2sl::svc::C2StoreConfig store_config(int shards, int threads);

/// Rounds of the measured phase; the gated metrics are medians over them.
inline constexpr int kRounds = 8;

/// Latency classes of single store calls (plus whole requests).
enum class Cls : int { kUpdate = 0, kRead = 1, kScan = 2, kRequest = 3, kCount = 4 };

/// What the store showed at quiescence, plus what the workers saw on the
/// way. The checker compares it against a sequential model of the
/// regenerated stream; the self-tests corrupt it to prove the checker bites.
struct Observed {
  int64_t counter_sum = 0;
  int64_t global_max = 0;
  int64_t journal_tickets = 0;
  int shard_count = 0;
  std::vector<int64_t> shard_counter;  ///< per shard (-1: no key routes there)
  std::vector<int64_t> shard_max;
  /// Set items taken, with the key index of the take.
  std::vector<std::pair<int64_t, uint32_t>> taken;
  std::vector<int64_t> tas_zero;       ///< test_and_set calls that returned 0, per shard
  std::vector<int64_t> final_snapshot; ///< audit: fresh-session replay, per bucket
  int64_t torn_snapshots = 0;          ///< audit: snapshots whose sum was not 0
  int64_t aggregate_regressions = 0;   ///< counter_sum/global_max went backwards
  int64_t tas_read_nonzero = 0;        ///< request: a TAS read 1 with no TAS set
  int64_t resizes_installed = 0;
  int64_t resizes_failed = 0;
};

/// Checks `obs` against the sequential model of `spec`'s stream. Returns an
/// empty string when it matches, else the first mismatch.
std::string check(const Spec& spec, const Observed& obs);

struct RunOptions {
  int setups = 5;        ///< set-ups per run; setup_s is their median
  bool spans = false;    ///< record sampled spans (the traced pass)
};

/// Everything one run measured.
struct RunResult {
  std::vector<double> setup_seconds;  ///< one per set-up
  Histogram hist[static_cast<int>(Cls::kCount)];
  std::vector<double> thread_rate;    ///< calls per second, per thread
  /// Per round of the measured phase: summed thread rates (calls/s) and
  /// latency histograms.
  std::vector<double> round_rate;
  std::vector<std::vector<Histogram>> round_hist;
  double measured_seconds = 0;       ///< slowest thread's measured phase
  uint64_t calls = 0;                 ///< measured calls attempted
  uint64_t failed = 0;                ///< calls that threw or returned an error
  double resize_seconds = 0;          ///< grow: time inside resize()
  Observed obs;
  SpanLog spans;                      ///< sampled spans (RunOptions::spans)

  // Store counters read at quiescence (per-layer metrics).
  int64_t ops_total = 0;
  int initialized_shards = 0;
  double shard_heat_imbalance = 0;   ///< < 0: the store has no heat gauges
  int64_t trace_records = -1;        ///< -1: the store has no witness trace
  int64_t trace_dropped = -1;
  int64_t snapshot_entries = 0;      ///< audit: journal entries snapshots replayed
  int64_t snapshots = 0;

  double throughput_mops() const;
  double setup_median() const;
};

/// One full run of `spec`: `opts.setups` set-ups (all but the last torn
/// down), the measured phase on the last, then the quiescent reads.
RunResult run_workload(const Spec& spec, const RunOptions& opts);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Median of a non-empty vector.
double median(std::vector<double> v);

/// Reusable barrier of `n` threads (std::barrier in libstdc++ 12 was seen to
/// leave waiters asleep after the last arrival).
class Rendezvous {
 public:
  explicit Rendezvous(int n) : n_(n), left_(n) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> g(mu_);
    uint64_t gen = gen_;
    if (--left_ == 0) {
      left_ = n_;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(g, [&] { return gen_ != gen; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
  int left_;
  uint64_t gen_ = 0;
};

}  // namespace c2bench
