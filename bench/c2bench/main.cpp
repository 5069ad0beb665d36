// The c2bench binary. One process runs one workload:
//
//   c2bench --workload ingest --seed 1 --seconds 10            end-to-end run
//   c2bench --workload ingest --seed 1 --seconds 10 --traced   per-layer run
//   c2bench --smoke                                            all four, ~1% size
//
// Every metric is printed as `metric <name> <value> <unit>`; the last line of
// standard output is one JSON object {"correct", "attempted", "failed",
// "metrics"}. A final state that disagrees with the sequential model, or a
// failed call, prints "correct": false with no metrics and exits 1. The
// per-layer run writes its sampled spans to traces/ in the working directory.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace c2bench {
namespace {

/// Client threads: one per CPU, capped so a max register still packs at
/// least two values per lane (63 / threads >= 2).
int client_threads() {
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  return n > 31 ? 31 : static_cast<int>(n);
}

struct Output {
  std::vector<Metric> metrics;  ///< reported in the final JSON
  void add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
    print(name, v, unit);
  }
  static void print(const std::string& name, double v, const std::string& unit) {
    std::printf("metric %s %.10g %s\n", name.c_str(), v, unit.c_str());
  }
};

void print_json(bool correct, uint64_t attempted, uint64_t failed, const std::vector<Metric>& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.10g", m[i].value);
    s += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         m[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Whole-run latency quantiles of one class, printed with their sample
/// count. p999 and max are never gated: preemption on a shared host sets them.
void print_latency(const std::string& cls, const Histogram& h, bool with_p50) {
  if (h.count() == 0) return;
  if (with_p50) Output::print(cls + "_p50_ns", h.quantile(0.50), "ns");
  Output::print(cls + "_p99_ns", h.quantile(0.99), "ns");
  Output::print(cls + "_p999_ns", h.quantile(0.999), "ns");
  Output::print(cls + "_max_ns", static_cast<double>(h.max()), "ns");
  Output::print(cls + "_samples", static_cast<double>(h.count()), "count");
}

Histogram query_hist(const RunResult& r) {
  Histogram q = r.hist[static_cast<int>(Cls::kRead)];
  q.merge(r.hist[static_cast<int>(Cls::kScan)]);
  return q;
}

/// Median over rounds of quantile `q` of the union of classes `cls`.
double round_median(const RunResult& r, std::initializer_list<Cls> cls, double q) {
  std::vector<double> v;
  for (const std::vector<Histogram>& round : r.round_hist) {
    Histogram h;
    for (Cls c : cls) h.merge(round[static_cast<size_t>(c)]);
    v.push_back(h.quantile(q));
  }
  return median(v);
}

/// Runs and checks; returns the empty string or the first mismatch. Every
/// workload is built so that no call fails, so a failed call fails the run.
std::string run_checked(const Spec& spec, const RunOptions& opts, RunResult& r) {
  r = run_workload(spec, opts);
  if (r.failed != 0) return std::to_string(r.failed) + " calls failed";
  return check(spec, r.obs);
}

int e2e(const Spec& spec) {
  RunOptions opts;
  RunResult r;
  std::string why = run_checked(spec, opts, r);
  if (!why.empty()) {
    std::fprintf(stderr, "c2bench: %s: check failed: %s\n", workload_name(spec.workload),
                 why.c_str());
    print_json(false, r.calls, r.failed, {});
    return 1;
  }
  // Gated metrics are medians over the measured phase's rounds: the shared
  // host slows whole rounds at a time, and a median ignores a minority of
  // slowed rounds. The p99s spread too widely between identical runs to
  // carry a bound; the traced run reports them as per-layer metrics.
  Output out;
  const Histogram& upd = r.hist[static_cast<int>(Cls::kUpdate)];
  Histogram query = query_hist(r);
  out.add("setup_s", r.setup_median(), "s");
  out.add("throughput_mops", median(r.round_rate) / 1e6, "Mops/s");
  out.add("update_p50_ns", round_median(r, {Cls::kUpdate}, 0.50), "ns");
  out.add("query_p50_ns", round_median(r, {Cls::kRead, Cls::kScan}, 0.50), "ns");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");

  // Reported, not gated: they exist on some workloads only, or spread too
  // widely between identical runs to carry a bound.
  print_latency("update", upd, false);
  print_latency("query", query, false);
  print_latency("read", r.hist[static_cast<int>(Cls::kRead)], true);
  print_latency("scan", r.hist[static_cast<int>(Cls::kScan)], true);
  print_latency("request", r.hist[static_cast<int>(Cls::kRequest)], true);
  if (spec.workload == Workload::kGrow) Output::print("resize_total_s", r.resize_seconds, "s");
  Output::print("whole_run_throughput_mops", r.throughput_mops(), "Mops/s");
  Output::print("measured_s", r.measured_seconds, "s");
  std::printf("round_mops");
  for (double x : r.round_rate) std::printf(" %.4f", x / 1e6);
  std::printf("\n");
  std::printf("setups");
  for (double s : r.setup_seconds) std::printf(" %.4f", s);
  std::printf("\n");
  print_json(true, r.calls, r.failed, out.metrics);
  return 0;
}

int traced(const Spec& spec) {
  // The spans pass. Its throughput, against an untraced run of the same
  // seed in a fresh process (run.py), is the spans' overhead: within one
  // process the second pass would reuse the first pass's faulted-in heap.
  RunOptions opts;
  opts.setups = 2;
  opts.spans = true;
  RunResult r;
  std::string why = run_checked(spec, opts, r);
  if (!why.empty()) {
    std::fprintf(stderr, "c2bench: %s: check failed: %s\n", workload_name(spec.workload),
                 why.c_str());
    print_json(false, r.calls, r.failed, {});
    return 1;
  }

  Output out;
  for (const Metric& m : run_ledger(spec)) out.add(m.name, m.value, m.unit);

  std::vector<SpanStats> st = r.spans.stats();
  auto span = [&st](SpanName n) -> const SpanStats& { return st[static_cast<size_t>(n)]; };
  out.add("service.resize_ms", resize_probe_ms(spec), "ms");
  out.add("service.open_ns.p50", span(SpanName::kOpen).dur_p50, "ns");
  out.add("service.open_ns.p99", span(SpanName::kOpen).dur_p99, "ns");
  out.add("service.close_ns", span(SpanName::kClose).dur_p50, "ns");
  out.add("service.bind_ns", span(SpanName::kBind).dur_p50, "ns");
  out.add("service.op_self_ns", span(SpanName::kOp).self_p50, "ns");
  out.add("service.initialized_shards", r.initialized_shards, "count");
  if (r.shard_heat_imbalance >= 0) {
    out.add("service.shard_heat_imbalance", r.shard_heat_imbalance, "ratio");
  } else {
    std::printf("metric service.shard_heat_imbalance absent\n");
  }
  out.add("runtime.journal.tickets", static_cast<double>(r.obs.journal_tickets), "count");
  out.add("runtime.journal.entries_per_snapshot",
           r.snapshots ? static_cast<double>(r.snapshot_entries) / static_cast<double>(r.snapshots)
                       : 0.0,
           "count");
  out.add("telemetry.ops_total", static_cast<double>(r.ops_total), "count");
  if (r.trace_records >= 0) {
    double records = static_cast<double>(r.trace_records);
    double dropped = static_cast<double>(r.trace_dropped);
    out.add("telemetry.trace.records", records, "count");
    out.add("telemetry.trace.dropped", dropped, "count");
    out.add("telemetry.trace.drop_share",
             records + dropped > 0 ? dropped / (records + dropped) : 0.0, "ratio");
  } else {
    std::printf("metric telemetry.trace.records absent\nmetric telemetry.trace.dropped absent\n"
                "metric telemetry.trace.drop_share absent\n");
  }
  out.add("update_p99_ns", round_median(r, {Cls::kUpdate}, 0.99), "ns");
  out.add("query_p99_ns", round_median(r, {Cls::kRead, Cls::kScan}, 0.99), "ns");
  out.add("traced_throughput_mops", median(r.round_rate) / 1e6, "Mops/s");

  for (int n = 0; n < kSpanNames; ++n) {
    const SpanStats& s = st[static_cast<size_t>(n)];
    if (s.count == 0) continue;
    std::string name = std::string("span.") + span_name(static_cast<SpanName>(n));
    Output::print(name + ".self_p50_ns", s.self_p50, "ns");
    Output::print(name + ".self_p99_ns", s.self_p99, "ns");
    Output::print(name + ".count", static_cast<double>(s.count), "count");
  }
  // The sampled spans, as Chrome trace-event JSON under traces/ in the
  // working directory (run.py runs c2bench inside build-c2bench/).
  std::filesystem::create_directories("traces");
  std::string path = std::string("traces/") + workload_name(spec.workload) + ".seed" +
                     std::to_string(spec.seed) + ".json";
  if (!r.spans.write_chrome(path, 1 << 14)) {
    std::fprintf(stderr, "c2bench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("chrome_trace %s\n", path.c_str());
  print_json(true, r.calls, r.failed, out.metrics);
  return 0;
}

/// All four workloads at 1% of full size, every check on, spans on as well.
int smoke(int threads) {
  int bad = 0;
  for (int w = 0; w < kWorkloadCount; ++w) {
    auto wl = static_cast<Workload>(w);
    Spec spec = make_spec(wl, 1, threads, 10.0, 0.01);
    RunOptions opts;
    opts.setups = 2;
    opts.spans = true;
    int64_t t0 = now_ns();
    RunResult r;
    std::string why = run_checked(spec, opts, r);
    std::printf("smoke %-8s %s  %.2f s  %llu calls\n", workload_name(wl),
                why.empty() ? "ok" : why.c_str(), static_cast<double>(now_ns() - t0) / 1e9,
                static_cast<unsigned long long>(r.calls));
    if (!why.empty()) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: c2bench --workload ingest|request|audit|grow --seed N --seconds S "
               "[--traced]\n"
               "       c2bench --smoke\n");
  return 2;
}

}  // namespace
}  // namespace c2bench

int main(int argc, char** argv) {
  using namespace c2bench;
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  bool is_traced = false;
  bool is_smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--traced") {
      is_traced = true;
    } else if (a == "--smoke") {
      is_smoke = true;
    } else {
      return usage();
    }
  }
  try {
    if (is_smoke) return smoke(client_threads());
    Workload w;
    if (!parse_workload(workload, w) || seed < 0 || seconds <= 0 || seconds > 60) return usage();
    Spec spec = make_spec(w, static_cast<uint64_t>(seed), client_threads(), seconds);
    return is_traced ? traced(spec) : e2e(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "c2bench: %s\n", e.what());
    return 1;
  }
}
