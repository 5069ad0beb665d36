// C2Store service benchmark: thread-scaling sweep (1..hardware_concurrency),
// shard-count ablation, and the canonical op mixes, driven through the
// workload engine. Emits one c2sl-bench-v1 suite document (BENCH_c2store.json
// by default) and a human-readable summary on stdout.
//
//   $ ./bench_c2store [--quick] [--out FILE] [--ops N] [--threads-max N]
//                     [--key-space N] [--resize-every N]
//                     [--metrics-out FILE] [--prom-out FILE]
//                     [--trace-out FILE] [--trace-audit-out FILE]
//                     [--chrome-trace-out FILE]
//
// --quick shrinks op counts for CI smoke runs. Every entry binds one typed
// ref per key before its timed loop (the cached-pointer path real clients
// use for hot keys). mix/resize_storm grows the store from 4 shards while it
// runs: worker 0 doubles the shard count every --resize-every of its ops (0
// picks ops/8) up to the engine cap, through the live epoch hand-off.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/trace_export.h"
#include "workload/engine.h"

using namespace c2sl;

namespace {

struct Args {
  bool quick = false;
  std::string out = "BENCH_c2store.json";
  uint64_t ops = 5000;
  bool ops_explicit = false;  // --quick only lowers ops when --ops is absent
  int threads_max = 0;        // 0 == hardware_concurrency
  /// Worker 0's resize cadence for the mix/resize_storm entry (ops between
  /// shard-count doublings); 0 picks ops/8 so every run resizes a few times
  /// regardless of --ops / --quick.
  uint64_t resize_every = 0;
  uint64_t key_space = 4096;
  /// c2sl-metrics-v1 JSON snapshot of the mix/mixed run's store telemetry
  /// (plus the primitive-op calibration profile); empty = don't write. CI's
  /// overhead-ablation job uploads this as the `c2sl-metrics` artifact.
  std::string metrics_out;
  /// Same snapshot as a Prometheus text exposition; empty = don't write.
  std::string prom_out;
  /// c2sl-trace-v1 JSON of the mix/mixed run's witness trace; empty = don't
  /// write. CI's trace job audits this with tools/trace_audit.py.
  std::string trace_out;
  /// Same for the mix/transfer_audit run (the conservation-cut audit).
  std::string trace_audit_out;
  /// Chrome trace-event JSON of the mix/mixed run (chrome://tracing).
  std::string chrome_trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      a.out = argv[++i];
    } else if (arg == "--ops" && i + 1 < argc) {
      a.ops = std::strtoull(argv[++i], nullptr, 10);
      a.ops_explicit = true;
    } else if (arg == "--threads-max" && i + 1 < argc) {
      a.threads_max = std::atoi(argv[++i]);
    } else if (arg == "--resize-every" && i + 1 < argc) {
      a.resize_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--key-space" && i + 1 < argc) {
      a.key_space = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      a.metrics_out = argv[++i];
    } else if (arg == "--prom-out" && i + 1 < argc) {
      a.prom_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      a.trace_out = argv[++i];
    } else if (arg == "--trace-audit-out" && i + 1 < argc) {
      a.trace_audit_out = argv[++i];
    } else if (arg == "--chrome-trace-out" && i + 1 < argc) {
      a.chrome_trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--ops N] [--threads-max N]"
                   " [--key-space N] [--resize-every N]"
                   " [--metrics-out FILE] [--prom-out FILE]"
                   " [--trace-out FILE] [--trace-audit-out FILE]"
                   " [--chrome-trace-out FILE]\n",
                   argv[0]);
      std::exit(1);
    }
  }
  if (a.quick && !a.ops_explicit) a.ops = 1000;
  return a;
}

wl::WorkloadResult run_one(wl::JsonWriter& w, const std::string& bench,
                           wl::WorkloadConfig cfg) {
  wl::WorkloadResult r = wl::run_workload(cfg);
  wl::append_result_entry(w, bench, r);
  std::printf("%-32s threads=%-2d shards=%-3d  %10.0f ops/s  p50=%6lld ns  p99=%8lld ns\n",
              bench.c_str(), cfg.threads, cfg.store.initial_shards, r.throughput_ops_s,
              static_cast<long long>(r.latency.p50_ns),
              static_cast<long long>(r.latency.p99_ns));
  if (r.wait_spread.waiters > 0) {
    // session_churn only: per-waiter open-latency fairness. The spread is the
    // max-min gap of each per-waiter statistic across waiters (0 = perfectly
    // even FIFO service).
    std::printf("%-32s waiters=%llu  p50 spread=%lld ns  p99 spread=%lld ns  "
                "max spread=%lld ns\n",
                "  wait-time-spread",
                static_cast<unsigned long long>(r.wait_spread.waiters),
                static_cast<long long>(r.wait_spread.p50_spread_ns),
                static_cast<long long>(r.wait_spread.p99_spread_ns),
                static_cast<long long>(r.wait_spread.max_spread_ns));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  int max_threads = args.threads_max > 0 ? args.threads_max : hw;
  max_threads = std::min(max_threads, 31);  // engine lane budget

  wl::JsonWriter w;
  w.begin_object();
  w.field("schema", "c2sl-bench-v1");
  w.field("suite", "bench_c2store");
  w.key("host").begin_object();
  w.field("hardware_concurrency", hw);
  w.field("key_space", args.key_space);
  w.end_object();
  w.key("results").begin_array();

  // --- thread-scaling sweep, zipfian keys, mixed ops ---
  for (int t = 1; t <= max_threads; ++t) {
    wl::WorkloadConfig cfg;
    cfg.threads = t;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::mixed();
    cfg.store.initial_shards = 16;
    run_one(w, "sweep/threads=" + std::to_string(t), cfg);
  }

  // --- shard-count ablation at full thread count ---
  for (int shards : {1, 2, 4, 8, 16, 32}) {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::mixed();
    cfg.store.initial_shards = shards;
    run_one(w, "ablation/shards=" + std::to_string(shards), cfg);
  }

  // --- op-mix and key-distribution scenarios ---
  // The mix/mixed entry's store telemetry feeds --metrics-out / --prom-out
  // (the same entry the CI overhead-ablation gate diffs ON-vs-OFF).
  tel::MetricsSnapshot metrics;
  tel::TraceDump trace_mixed;
  tel::TraceDump trace_audit;
  const bool want_mixed_trace =
      !args.trace_out.empty() || !args.chrome_trace_out.empty();
  for (const char* mix :
       {"read_heavy", "write_heavy", "mixed", "sum_heavy", "snapshot_heavy",
        "transfer_audit"}) {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::by_name(mix);
    cfg.store.initial_shards = 16;
    cfg.collect_trace =
        (std::strcmp(mix, "mixed") == 0 && want_mixed_trace) ||
        (std::strcmp(mix, "transfer_audit") == 0 && !args.trace_audit_out.empty());
    wl::WorkloadResult r = run_one(w, std::string("mix/") + mix, cfg);
    if (std::strcmp(mix, "mixed") == 0) {
      metrics = r.metrics;
      trace_mixed = std::move(r.trace);
    }
    if (std::strcmp(mix, "transfer_audit") == 0) trace_audit = std::move(r.trace);
  }
  // --- session churn: more threads than lanes, blocking opens ---
  // The store keeps HALF the worker count in lanes, so every open contends
  // and parks on the handoff queue. Latency percentiles here are OPEN
  // latencies (see workload/op_mix.h).
  {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::session_churn();
    cfg.store.initial_shards = 16;
    cfg.store.max_threads = std::max(1, max_threads / 2);  // lanes < threads
    run_one(w, "mix/session_churn", cfg);
  }

  // --- resize storm: keyed traffic under live shard resizing ---
  // Worker 0 doubles the shard count on a fixed cadence while every worker
  // keeps writing/reading through the epoch hand-off. Starts at 4 shards so
  // the schedule gets several doublings before the engine cap. The conservation
  // check (counter_sum == total incs across every cut) runs inside the
  // engine on this entry.
  {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = "zipfian";
    cfg.mix = wl::OpMix::resize_storm();
    cfg.resize_every =
        args.resize_every > 0 ? args.resize_every : std::max<uint64_t>(1, args.ops / 8);
    cfg.store.initial_shards = 4;
    wl::WorkloadResult r = run_one(w, "mix/resize_storm", cfg);
    std::printf("%-32s resizes=%lld  final_shards=%d\n", "  resize-storm",
                static_cast<long long>(r.resizes_done), r.final_shards);
  }

  for (const char* dist : {"uniform", "hotburst"}) {
    wl::WorkloadConfig cfg;
    cfg.threads = max_threads;
    cfg.ops_per_thread = args.ops;
    cfg.key_space = args.key_space;
    cfg.dist = dist;
    cfg.mix = wl::OpMix::mixed();
    cfg.store.initial_shards = 16;
    run_one(w, std::string("dist/") + dist, cfg);
  }

  w.end_array();
  w.end_object();
  std::ofstream out(args.out);
  out << w.str() << "\n";
  std::printf("wrote %s\n", args.out.c_str());

  if (!args.metrics_out.empty() || !args.prom_out.empty()) {
    // The calibration pass (average FAA/TAS/swap per service op on a private
    // store) rides on the mix/mixed snapshot; a no-op when telemetry is off.
    wl::profile_primitives(metrics);
    if (!args.metrics_out.empty()) {
      std::ofstream mout(args.metrics_out);
      mout << tel::to_json(metrics, "bench_c2store") << "\n";
      std::printf("wrote %s\n", args.metrics_out.c_str());
    }
    if (!args.prom_out.empty()) {
      std::ofstream pout(args.prom_out);
      pout << tel::to_prometheus(metrics);
      std::printf("wrote %s\n", args.prom_out.c_str());
    }
  }
  if (!args.trace_out.empty()) {
    std::ofstream tout(args.trace_out);
    tout << tel::trace_to_json(trace_mixed, "bench_c2store:mix/mixed") << "\n";
    std::printf("wrote %s\n", args.trace_out.c_str());
  }
  if (!args.trace_audit_out.empty()) {
    std::ofstream tout(args.trace_audit_out);
    tout << tel::trace_to_json(trace_audit, "bench_c2store:mix/transfer_audit")
         << "\n";
    std::printf("wrote %s\n", args.trace_audit_out.c_str());
  }
  if (!args.chrome_trace_out.empty()) {
    std::ofstream tout(args.chrome_trace_out);
    tout << tel::trace_to_chrome(trace_mixed, "bench_c2store:mix/mixed") << "\n";
    std::printf("wrote %s\n", args.chrome_trace_out.c_str());
  }
  return 0;
}
