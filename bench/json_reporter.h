// Bridges the google-benchmark suites onto the "c2sl-bench-v1" JSON schema
// (see README.md), so every suite's BENCH_*.json artifact has one shape.
//
// Usage: replace BENCHMARK_MAIN() with
//   int main(int argc, char** argv) {
//     return c2bench::run_with_schema_reporter(argc, argv, "bench_native",
//                                              "BENCH_native.json");
//   }
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <string>
#include <vector>

#include "util/json_writer.h"

namespace c2bench {

/// Tee reporter: normal console output PLUS a c2sl-bench-v1 JSON file. Passed
/// as the *display* reporter (benchmark refuses custom file reporters unless
/// --benchmark_out is also given).
class C2SchemaReporter : public benchmark::BenchmarkReporter {
 public:
  C2SchemaReporter(std::string path, std::string suite)
      : path_(std::move(path)), suite_(std::move(suite)) {
    writer_.begin_object();
    writer_.field("schema", "c2sl-bench-v1");
    writer_.field("suite", suite_);
    writer_.key("results").begin_array();
  }

  bool ReportContext(const Context& context) override {
    console_.SetOutputStream(&GetOutputStream());
    console_.SetErrorStream(&GetErrorStream());
    return console_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_.ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      writer_.begin_object();
      writer_.field("bench", run.benchmark_name());
      writer_.key("config").begin_object();
      writer_.field("iterations", static_cast<int64_t>(run.iterations));
      if (!run.report_label.empty()) writer_.field("label", run.report_label);
      writer_.end_object();
      writer_.key("metrics").begin_object();
      double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      writer_.field("seconds", run.real_accumulated_time);
      writer_.field("seconds_per_iter", run.real_accumulated_time / iters);
      writer_.field("cpu_seconds_per_iter", run.cpu_accumulated_time / iters);
      // Benchmarks that publish a "throughput_ops_per_s" rate counter get it
      // hoisted to a top-level metric (e.g. bench_tas_family's NativeFai
      // entries), so a comparison reads one key across suites.
      auto thr = run.counters.find("throughput_ops_per_s");
      if (thr != run.counters.end()) {
        writer_.field("throughput_ops_per_s", static_cast<double>(thr->second));
      }
      if (!run.counters.empty()) {
        writer_.key("counters").begin_object();
        for (const auto& [name, counter] : run.counters) {
          writer_.field(name, static_cast<double>(counter));
        }
        writer_.end_object();
      }
      writer_.end_object();  // metrics
      writer_.end_object();  // entry
    }
  }

  void Finalize() override {
    console_.Finalize();
    writer_.end_array();
    writer_.end_object();
    std::ofstream out(path_);
    out << writer_.str() << "\n";
  }

 private:
  std::string path_;
  std::string suite_;
  c2sl::JsonWriter writer_;
  benchmark::ConsoleReporter console_;
};

/// Consumes every `--<prefix>value` occurrence of one suite-private flag from
/// argv (compacting argv so google-benchmark never sees it) and returns the
/// last value, or `fallback`. Serves `--out=` below.
inline std::string consume_flag(int* argc, char** argv, const char* prefix,
                                const char* fallback) {
  std::string value = fallback;
  const size_t len = std::string(prefix).size();
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(len);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return value;
}

inline int run_with_schema_reporter(int argc, char** argv, const char* suite,
                                    const char* path) {
  // `--out=PATH` lets one binary emit several artifacts for an A/B
  // comparison (same bench names, different runs).
  std::string out = consume_flag(&argc, argv, "--out=", path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  C2SchemaReporter display(out, suite);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return 0;
}

}  // namespace c2bench
