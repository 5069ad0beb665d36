// C2Store quickstart: a sharded object service built ONLY from
// consensus-number-2 primitives (exchange + fetch&add — no CAS anywhere, not
// even in the service plumbing), serving a mixed workload from real threads.
//
//   $ ./example_c2store_demo [threads] [ops_per_thread] [--metrics]
//                             [--trace-out FILE]
//
// --metrics additionally prints the workload store's c2sl-metrics-v1 JSON
// snapshot and its Prometheus text exposition (the no-CAS telemetry layer;
// a disabled C2SL_CAPTURE=0 build prints telemetry_enabled=false).
// --trace-out FILE writes the workload's linearization-witness trace as
// c2sl-trace-v1 JSON (audit it offline with tools/trace_audit.py).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "service/c2store.h"
#include "telemetry/export.h"
#include "telemetry/trace_export.h"
#include "workload/engine.h"

using namespace c2sl;

int main(int argc, char** argv) try {
  bool metrics = false;
  std::string trace_out;
  int pos = 0;
  int positional[2] = {0, 0};
  bool have[2] = {false, false};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (pos < 2) {
      positional[pos] = std::atoi(argv[i]);
      have[pos] = true;
      ++pos;
    }
  }
  wl::WorkloadConfig cfg;
  cfg.threads = have[0] ? positional[0] : 4;
  cfg.ops_per_thread = have[1] ? static_cast<uint64_t>(positional[1]) : 5000;
  cfg.key_space = 4096;
  cfg.dist = "zipfian";
  cfg.mix = wl::OpMix::mixed();
  cfg.store.initial_shards = 16;
  cfg.collect_trace = !trace_out.empty();

  // Direct API taste: open a session (RAII lane), bind typed key-bound refs
  // once, then operate through the cached handles. String keys route through
  // the same FNV+mix hash path — but only at bind time.
  svc::C2Store store(cfg.store);
  svc::C2Session session = store.open_session();
  svc::MaxRef score = session.max("user:1042/score");
  svc::CounterRef hits = session.counter("page:/index/hits");
  svc::SetRef emails = session.set("queue:emails");
  score.write(5);
  hits.inc();
  emails.put(7001);
  std::printf("direct: score=%lld hits=%lld email=%lld (lane=%d)\n",
              static_cast<long long>(score.read()),
              static_cast<long long>(hits.read()),
              static_cast<long long>(emails.take()), session.lane());
  session.close();

  wl::WorkloadResult r = wl::run_workload(cfg);
  std::printf(
      "workload: %llu ops on %d threads x %d shards in %.3fs  (%.0f ops/s)\n"
      "  latency ns: p50=%lld p90=%lld p99=%lld max=%lld\n"
      "  final: shards_touched=%d global_max=%lld counter_sum=%lld\n",
      static_cast<unsigned long long>(r.total_ops), cfg.threads, cfg.store.initial_shards,
      r.seconds, r.throughput_ops_s, static_cast<long long>(r.latency.p50_ns),
      static_cast<long long>(r.latency.p90_ns), static_cast<long long>(r.latency.p99_ns),
      static_cast<long long>(r.latency.max_ns), r.initialized_shards,
      static_cast<long long>(r.final_global_max),
      static_cast<long long>(r.final_counter_sum));

  std::printf("%s\n", wl::result_to_json("c2store_demo", "demo/mixed", r).c_str());

  if (metrics) {
    std::printf("%s\n", tel::to_json(r.metrics, "c2store_demo").c_str());
    std::printf("%s", tel::to_prometheus(r.metrics).c_str());
  }
  if (!trace_out.empty()) {
    std::ofstream tout(trace_out);
    tout << tel::trace_to_json(r.trace, "c2store_demo") << "\n";
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
