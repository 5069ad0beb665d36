// Spans for the traced run: one per public store call on sampled ops, timed
// from the benchmark's side of the call. A request's spans (open, bind, op,
// close) share its id and sit under one `request` span, so self time is the
// span's duration minus its children's. Kept in memory per thread and
// written at exit as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace c2bench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint8_t {
  kRequest,
  kOpen,
  kBind,
  kOp,
  kClose,
  kSnapshot,
  kResize,
  kCount,
};
inline constexpr int kSpanNames = static_cast<int>(SpanName::kCount);
const char* span_name(SpanName n);

/// One op in this many is sampled (op index % kSpanSample == 0).
inline constexpr uint64_t kSpanSample = 64;

struct Span {
  int64_t t0 = 0;
  int64_t t1 = 0;
  uint64_t id = 0;     ///< shared by a request's spans
  SpanName name = SpanName::kOp;
  bool child = false;  ///< covered by the preceding root span of the same id
};

/// One thread's spans, in completion order: children are appended before
/// the root that covers them.
struct SpanBuf {
  std::vector<Span> spans;
  void add(SpanName n, uint64_t id, bool child, int64_t t0, int64_t t1) {
    spans.push_back(Span{t0, t1, id, n, child});
  }
};

struct SpanStats {
  uint64_t count = 0;
  double self_p50 = 0;
  double self_p99 = 0;
  double dur_p50 = 0;
  double dur_p99 = 0;
};

struct SpanLog {
  std::vector<SpanBuf> threads;

  /// Per span name (indexed by SpanName): duration and self-time quantiles.
  std::vector<SpanStats> stats() const;
  /// Chrome trace-event JSON (the first `max_events` spans of each thread).
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, size_t max_events) const;
};

}  // namespace c2bench
