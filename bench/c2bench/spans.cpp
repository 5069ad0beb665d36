#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/histogram.h"

namespace c2bench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kRequest: return "request";
    case SpanName::kOpen: return "open";
    case SpanName::kBind: return "bind";
    case SpanName::kOp: return "op";
    case SpanName::kClose: return "close";
    case SpanName::kSnapshot: return "snapshot";
    case SpanName::kResize: return "resize";
    case SpanName::kCount: break;
  }
  return "unknown";
}

namespace {
double exact_quantile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0;
  size_t k = c2sl::tel::nearest_rank_index(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}
}  // namespace

std::vector<SpanStats> SpanLog::stats() const {
  std::vector<std::vector<int64_t>> self(kSpanNames), dur(kSpanNames);
  for (const SpanBuf& b : threads) {
    // Children precede their root: accumulate child time until the root of
    // the same id arrives.
    int64_t child_sum = 0;
    uint64_t child_id = 0;
    for (const Span& s : b.spans) {
      int64_t d = s.t1 - s.t0;
      auto n = static_cast<size_t>(s.name);
      dur[n].push_back(d);
      if (s.child) {
        if (s.id != child_id) child_sum = 0;
        child_id = s.id;
        child_sum += d;
        self[n].push_back(d);
      } else {
        self[n].push_back(s.id == child_id ? d - child_sum : d);
        child_sum = 0;
        child_id = 0;
      }
    }
  }
  std::vector<SpanStats> out(kSpanNames);
  for (int n = 0; n < kSpanNames; ++n) {
    auto k = static_cast<size_t>(n);
    out[k].count = dur[k].size();
    out[k].self_p50 = exact_quantile(self[k], 0.50);
    out[k].self_p99 = exact_quantile(self[k], 0.99);
    out[k].dur_p50 = exact_quantile(dur[k], 0.50);
    out[k].dur_p99 = exact_quantile(dur[k], 0.99);
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path, size_t max_events) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const SpanBuf& b : threads) {
    for (const Span& s : b.spans) origin = std::min(origin, s.t0);
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (size_t t = 0; t < threads.size(); ++t) {
    const std::vector<Span>& v = threads[t].spans;
    size_t n = std::min(v.size(), max_events);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = v[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                   first ? "" : ",", span_name(s.name), t,
                   static_cast<double>(s.t0 - origin) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.id));
      first = false;
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace c2bench
