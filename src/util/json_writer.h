// Minimal streaming JSON writer — the single serialisation path for the
// capture exporters (c2sl-metrics-v1, c2sl-trace-v1) and the
// google-benchmark-based suites' BENCH_*.json artifacts (c2sl-bench-v1, via
// bench/json_reporter.h). No external dependency; emits UTF-8 with standard
// escaping.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace c2sl {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the member name; must be followed by a value or container begin.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(int64_t v);
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void comma();
  void value_escaped_append(std::string_view v);

  std::string out_;
  std::vector<bool> first_;  ///< per open container: no element emitted yet
  bool pending_key_ = false;
};

}  // namespace c2sl
