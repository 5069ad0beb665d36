// Linearization-witness tracing — always-on per-op trace capture.
//
// Strong linearizability (the paper's whole point) means every operation
// fixes its place in the total order at one of its OWN steps. That makes the
// order *witnessable at runtime*: the journal ticket a keyed write draws from
// rt::KeyedVersionDigest, the digest value an aggregate read loads, the
// journal tail a snapshot pins — each IS the op's linearization evidence, not
// a reconstruction. This layer records that evidence per op, so an offline
// auditor (tools/trace_audit.py) can validate a *production* history in
// O(n log n) replay instead of the NP-hard search ordinary linearizability
// would require: replay the witnessed order through a sequential model, check
// every recorded result, and check real-time precedence
// (response(a) < invoke(b) ⇒ witness(a) < witness(b)).
//
// Capture discipline (same no-CAS budget as telemetry.h):
//   * One LaneTrace per service lane. Lanes are single-owner (the session
//     holding the lane), so record fields are PLAIN writes into a
//     writer-private segment spine (same doubling geometry as
//     rt::SegmentedArray, but single-writer: segments are allocated
//     UNINITIALISED — every published record is fully written before the
//     count release, so garbage cells are never readable — and the segment
//     pointers ride the same release/acquire pair as the records). The only
//     atomics are the release-published count (so a concurrent drain is
//     TSAN-defined), the release-published pending index, the relaxed
//     segment pointers, and a relaxed drop counter. No RMW, nothing on a
//     decision path.
//   * Appends never block: past LaneTrace::kCap records the lane counts drops
//     instead of writing (the auditor refuses a lossy trace unless told
//     otherwise, so a dropped record can never silently pass an audit).
//   * Timestamps are raw TSC ticks on x86, ONE read per op: a TraceScope
//     stamps its invoke tick at construction and leaves the record PENDING;
//     the next activity on the lane (the next scope, a point event, or an
//     explicit flush) stamps that same tick as the pending record's response
//     and commits it. The recorded response is therefore never EARLIER than
//     the true one — intervals only widen, which is the sound direction for
//     the auditor's precedence check (a widened interval can only suppress a
//     constraint, never fabricate one). StoreTrace keeps a (tick, ns)
//     calibration pair from construction and dump() takes a second pair, so
//     export converts ticks to wall nanoseconds without hot-path division.
//   * The post-mortem view is this same log: the assert hook prints each
//     lane's last records plus its PENDING one (the lane's last op, staged
//     but not yet committed), published by one release store of its index
//     — a plain mov on x86, no RMW, no fence (trace_export.h,
//     dump_trace_tail).
//
// -DC2SL_CAPTURE=OFF collapses every type here to an empty constexpr shell
// (like telemetry.h); tests/trace_off_test.cpp proves the disabled hot path
// constant-evaluable, hence free of atomics and clock reads.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/prim_profile.h"

#if C2SL_CAPTURE
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <new>

#include "runtime/segmented_array.h"
#endif

namespace c2sl::tel {

/// One captured operation. Fixed 64-byte layout (one cache line, and
/// line-ALIGNED so an append dirties exactly one line), plain data in both
/// flavours so tests and exporters never need #if.
struct alignas(64) TraceRecord {
  int32_t op = 0;      ///< TraceOp code
  int32_t key_b = -1;  ///< transfer credit bucket; -1 for every other kind
  int64_t key = -1;    ///< journal bucket / shard slot; -1 = not keyed
  int64_t arg = 0;     ///< op argument (value written, amount, key count, ...)
  int64_t result = 0;  ///< op result (prev count, read value, sum, status)
  int64_t witness = -1;  ///< linearization witness (journal ticket / digest
                         ///< FAA value / snapshot tail); -1 = unwitnessed op
  int64_t t0 = 0;      ///< invoke timestamp, raw ticks
  int64_t t1 = 0;      ///< response timestamp, raw ticks
  int64_t epoch = -1;  ///< routing epoch observed by the op; -1 = n/a
};
static_assert(sizeof(TraceRecord) == 64, "one record = one cache line");

/// Drained copy of one lane's log. Plain data, flavour-independent.
struct LaneTraceDump {
  int lane = -1;
  uint64_t dropped = 0;
  std::vector<TraceRecord> records;
};

/// Drained copy of a whole store's trace plus the tick->ns calibration the
/// exporters need: ns(t) = (t - tick_base) * ns_per_tick + ns_base.
struct TraceDump {
  bool enabled = false;
  int initial_shards = 0;
  int64_t tick_base = 0;
  int64_t ns_base = 0;
  double ns_per_tick = 1.0;
  std::vector<LaneTraceDump> lanes;
};

#if C2SL_CAPTURE

inline namespace capture_on {

/// Raw monotonic tick. TSC on x86 (serializing fences deliberately omitted:
/// a few-cycle skew is far below the auditor's --slack-ns floor and a fenced
/// read would triple the cost of the two always-on reads per op);
/// steady_clock ns elsewhere (calibration then yields ns_per_tick == ~1).
inline int64_t trace_now() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<int64_t>(__builtin_ia32_rdtsc());
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

/// Process-lifetime reuse arena for trace segments, keyed by spine slot (all
/// segments in slot s share one size). First-touch page population costs
/// ~1µs/page on virtualised hosts — per-store allocation would re-pay it for
/// every store in a process, which is exactly the overhead the CI capture
/// on-vs-off gate punishes. Recycling retired segments makes the steady state
/// fault-free. Acquire/release run only on the COLD segment-crossing path
/// (once per segment per lane life, never per record), so a plain mutex is
/// appropriate here: this is allocator infrastructure in the same trust
/// class as ::operator new (which also locks internally), not a step of any
/// traced operation — the no-CAS discipline governs decision paths, and no
/// trace decision runs under this lock. The containers are function-local
/// statics reachable until process exit, so pooled segments are never
/// leak-reported.
class TraceArena {
 public:
  static TraceRecord* acquire(int s) {
    {
      std::lock_guard<std::mutex> g(mu());
      auto& v = lists()[static_cast<size_t>(s)];
      if (!v.empty()) {
        TraceRecord* p = v.back();
        v.pop_back();
        return p;
      }
    }
    return static_cast<TraceRecord*>(::operator new(
        sizeof(TraceRecord) * rt::SegmentedArray<TraceRecord>::segment_size(s),
        std::align_val_t{alignof(TraceRecord)}));
  }
  static void release(int s, TraceRecord* p) {
    std::lock_guard<std::mutex> g(mu());
    lists()[static_cast<size_t>(s)].push_back(p);
  }

 private:
  using Lists = std::array<std::vector<TraceRecord*>,
                           rt::SegmentedArray<TraceRecord>::kMaxSegments>;
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static Lists& lists() {
    static Lists* a = new Lists();  // deliberately immortal: see class comment
    return *a;
  }
};

/// One lane's append-only record log. Single writer (the session owning the
/// lane); any thread may drain concurrently. SPSC publication: the writer
/// fills the record with plain stores, then release-publishes the count; the
/// drainer acquire-loads the count and reads only below it.
///
/// The writer keeps two pieces of private state off the atomic path: a cached
/// window into the current segment (so the steady-state append is pointer
/// arithmetic, not a spine lookup), and at most one PENDING record — the last
/// TraceScope's, awaiting its response tick. The next writer-side activity
/// (scope, point event, or flush()) stamps and commits it; until then a
/// concurrent drain does not see that op, and only pending() (the
/// post-mortem tail) reads it.
class alignas(128) LaneTrace {
 public:
  /// Per-lane record capacity. Beyond this the lane drops-with-count. 2^20
  /// records x 64 B = 64 MiB/lane worst case, allocated lazily in segments.
  static constexpr uint64_t kCap = uint64_t{1} << 20;

  LaneTrace() = default;
  LaneTrace(const LaneTrace&) = delete;
  LaneTrace& operator=(const LaneTrace&) = delete;
  ~LaneTrace() {
    for (int s = 0; s < kSegs; ++s) {
      if (segs_w_[s] != nullptr) TraceArena::release(s, segs_w_[s]);
    }
  }

  /// Writer side. Returns the slot to fill, or nullptr when the lane is at
  /// capacity (the drop is counted; the caller just skips its plain stores).
  /// Must not be called while a pending record is outstanding — callers
  /// always flush_pending() first.
  TraceRecord* begin_append() {
    uint64_t n = n_;  // plain field: writer-private cursor
    if (n >= kCap) {
      // c2sl-atomic: store relaxed, load relaxed — single-writer drop
      // counter; atomic only so the drain-side read is defined
      dropped_.store(dropped_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
      return nullptr;
    }
    if (n < win_lo_ || n >= win_hi_) refresh_window(n);
    return win_base_ + (n - win_lo_);
  }

  /// Writer side, after the record's plain stores: make it drainable.
  void commit_append() {
    uint64_t n = n_ + 1;
    n_ = n;
    // c2sl-atomic: store release — publishes the filled record to drainers
    // (pairs with the acquire in drain_into)
    published_.store(n, std::memory_order_release);
    // Warm the next record's cache line for writing: appends stream one fresh
    // 64-byte line per op, and without the hint every commit eats the
    // read-for-ownership miss on the critical path.
    if (n >= win_lo_ && n < win_hi_) {
      __builtin_prefetch(win_base_ + (n - win_lo_), 1, 0);
    }
  }

  /// Writer side: stage `r` (the record begin_append just handed out, fully
  /// filled except its response tick) as pending. Committed by the next
  /// flush_pending with that activity's tick as the response timestamp.
  void stage_pending(TraceRecord* r) {
    pending_ = r;
    // c2sl-atomic: store release — publishes the staged record to pending()
    // (pairs with its acquire); a plain store on x86, no RMW, no fence
    staged_.store(n_ + 1, std::memory_order_release);
  }

  /// Writer side: stamp and commit the pending record, if any. `tick` is
  /// taken at the START of the current activity, so it is never earlier than
  /// the pending op's true response — recorded intervals only widen.
  void flush_pending(int64_t tick) {
    TraceRecord* p = pending_;
    if (p == nullptr) return;
    pending_ = nullptr;
    p->t1 = tick;
    commit_append();
  }

  /// Writer side: flush the pending record at the current tick. For writers
  /// that stop appending without a session-close event (tests, ad-hoc use);
  /// the service layer's close event flushes implicitly.
  void flush() { flush_pending(trace_now()); }

  /// Drain side: copy the published records — all of them, or only the
  /// newest `tail` — and return the lane index of the first one copied. Safe
  /// against a concurrent writer — only records below the acquired count are
  /// touched, and any segment holding such a record had its pointer stored
  /// before the count was released, so the acquire makes both visible
  /// together.
  uint64_t drain_into(LaneTraceDump& out, uint64_t tail = kCap) const {
    // c2sl-atomic: load acquire — pairs with commit_append's release; records
    // below this count are fully written
    uint64_t n = published_.load(std::memory_order_acquire);
    uint64_t from = n > tail ? n - tail : 0;
    out.records.reserve(static_cast<size_t>(n - from));
    for (uint64_t i = from; i < n;) {
      int s = Arr::segment_of(static_cast<size_t>(i));
      uint64_t start = Arr::segment_start(s);
      uint64_t end = start + Arr::segment_size(s);
      if (end > n) end = n;
      // c2sl-atomic: load relaxed — segment pointer; non-null for every
      // segment holding records below the acquired count (ordering rides the
      // published-count release/acquire pair)
      const TraceRecord* base = segs_[s].load(std::memory_order_relaxed);
      out.records.insert(out.records.end(), base + (i - start),
                         base + (end - start));
      i = end;
    }
    // c2sl-atomic: load relaxed — drop-counter read (drain side)
    out.dropped = dropped_.load(std::memory_order_relaxed);
    return from;
  }

  /// Drain side: copy the pending record — the lane's last op, staged but
  /// not yet committed — into `out` and return its lane index, or -1 when
  /// nothing is staged beyond the published count. Every field but t1 is
  /// final once staged; t1 (which the commit still writes) is left at the
  /// t0 floor, so the read never touches a cell the writer may be writing.
  int64_t pending(TraceRecord& out) const {
    // c2sl-atomic: load acquire — pairs with stage_pending's release; the
    // staged record and its segment pointer are visible past this load
    uint64_t staged = staged_.load(std::memory_order_acquire);
    uint64_t n = published();
    if (staged != n + 1) return -1;  // nothing staged, or committed since
    int s = Arr::segment_of(static_cast<size_t>(n));
    // c2sl-atomic: load relaxed — segment pointer, stored before the staged
    // index release (begin_append runs before stage_pending)
    const TraceRecord& r = segs_[s].load(std::memory_order_relaxed)
                               [n - Arr::segment_start(s)];
    out.op = r.op;
    out.key_b = r.key_b;
    out.key = r.key;
    out.arg = r.arg;
    out.result = r.result;
    out.witness = r.witness;
    out.t0 = r.t0;
    out.t1 = r.t0;
    out.epoch = r.epoch;
    return static_cast<int64_t>(n);
  }

  uint64_t published() const {
    // c2sl-atomic: load acquire — drain-side count read
    return published_.load(std::memory_order_acquire);
  }

  uint64_t dropped() const {
    // c2sl-atomic: load relaxed — drop-counter read
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  using Arr = rt::SegmentedArray<TraceRecord>;  ///< geometry helpers only
  /// Spine slots needed to cover kCap records under the doubling geometry.
  static constexpr int kSegs = Arr::segment_of(static_cast<size_t>(kCap) - 1) + 1;

  /// Re-aim the cached window at the segment holding index n, allocating the
  /// segment on first touch (cold: runs once per segment crossing,
  /// ~log2(n/64) times over a lane's whole life). The allocation is
  /// deliberately UNINITIALISED (::operator new, no constructors): drainers
  /// read only below the published count, and every such record was fully
  /// written before its count release — zeroing megabytes of soon-overwritten
  /// cells was a measurable fraction of the capture overhead.
  void refresh_window(uint64_t n) {
    int s = Arr::segment_of(static_cast<size_t>(n));
    TraceRecord* base = segs_w_[s];
    if (base == nullptr) {
      base = TraceArena::acquire(s);
      segs_w_[s] = base;
      // c2sl-atomic: store relaxed — segment-pointer publication to drainers;
      // ordering rides the published-count release (a record below the count
      // implies its segment pointer was stored before that release)
      segs_[s].store(base, std::memory_order_relaxed);
    }
    win_base_ = base;
    win_lo_ = Arr::segment_start(s);
    win_hi_ = win_lo_ + Arr::segment_size(s);
  }

  uint64_t n_ = 0;  ///< writer-private cursor (plain: single owner)
  TraceRecord* win_base_ = nullptr;  ///< writer-private segment window
  uint64_t win_lo_ = 0;              ///< first index inside the window
  uint64_t win_hi_ = 0;              ///< one past the last window index
  TraceRecord* pending_ = nullptr;   ///< writer-private: awaiting response tick
  TraceRecord* segs_w_[kSegs] = {};  ///< writer-private spine mirror
  std::atomic<TraceRecord*> segs_[kSegs] = {};  ///< drain-visible spine
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> staged_{0};  ///< 1 + index of the last staged record
  std::atomic<uint64_t> dropped_{0};
};

/// Store-wide trace root: the lane-log spine plus tick calibration.
class StoreTrace {
 public:
  StoreTrace() {
    tick_base_ = trace_now();
    ns_base_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
  }
  StoreTrace(const StoreTrace&) = delete;
  StoreTrace& operator=(const StoreTrace&) = delete;

  LaneTrace* lane(int i) { return &lanes_.cell(static_cast<size_t>(i)); }
  const LaneTrace* peek_lane(int i) const {
    return lanes_.peek(static_cast<size_t>(i));
  }

  /// Point event (open/close/resize): one record with t0 == t1. Flushes the
  /// lane's pending record first, so a session-close event doubles as the
  /// flush point that makes the lane's last interval op drainable.
  void record_event(LaneTrace* lt, TraceOp op, int64_t key, int64_t arg,
                    int64_t result, int64_t witness, int64_t epoch) {
    if (lt == nullptr) return;
    int64_t now = trace_now();
    lt->flush_pending(now);
    TraceRecord* r = lt->begin_append();
    if (r == nullptr) return;
    r->op = static_cast<int32_t>(op);
    r->key_b = -1;
    r->key = key;
    r->arg = arg;
    r->result = result;
    r->witness = witness;
    r->t0 = now;
    r->t1 = now;
    r->epoch = epoch;
    lt->commit_append();
  }

  /// Drain every lane. Takes a second (tick, ns) calibration pair so the
  /// export runs on wall-clock nanoseconds however fast the TSC ticks.
  TraceDump dump(int max_lanes, int initial_shards) const {
    TraceDump d;
    d.enabled = true;
    d.initial_shards = initial_shards;
    d.tick_base = tick_base_;
    d.ns_base = ns_base_;
    int64_t tick_now = trace_now();
    int64_t ns_now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
    d.ns_per_tick = tick_now > tick_base_
                        ? static_cast<double>(ns_now - ns_base_) /
                              static_cast<double>(tick_now - tick_base_)
                        : 1.0;
    for (int i = 0; i < max_lanes; ++i) {
      const LaneTrace* lt = peek_lane(i);
      if (lt == nullptr) continue;
      if (lt->published() == 0 && lt->dropped() == 0) continue;
      LaneTraceDump ld;
      ld.lane = i;
      lt->drain_into(ld);
      d.lanes.push_back(std::move(ld));
    }
    return d;
  }

 private:
  rt::SegmentedArray<LaneTrace> lanes_;
  int64_t tick_base_ = 0;
  int64_t ns_base_ = 0;
};

/// RAII capture for one interval op: ONE tick read at construction stamps
/// this op's invoke AND commits the lane's previous pending record with that
/// tick as its response (never earlier than the true response — sound for
/// the auditor; see the header comment). Destruction stages this record as
/// the new pending one. Sits next to tel::OpScope at the top of every
/// instrumented hot path; the setters run between, as the op's own steps
/// reveal its witness/result.
class TraceScope {
 public:
  TraceScope(LaneTrace* lt, TraceOp op, int64_t key, int64_t arg) : lt_(lt) {
    if (lt_ == nullptr) return;
    int64_t tick = trace_now();
    lt_->flush_pending(tick);
    rec_ = lt_->begin_append();
    if (rec_ == nullptr) return;  // lane at cap: drop counted, scope inert
    rec_->op = static_cast<int32_t>(op);
    rec_->key_b = -1;
    rec_->key = key;
    rec_->arg = arg;
    rec_->result = 0;
    rec_->witness = -1;
    rec_->epoch = -1;
    rec_->t0 = tick;
    rec_->t1 = tick;  // floor; the real response tick lands at the flush
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void set_result(int64_t v) {
    if (rec_) rec_->result = v;
  }
  void set_witness(int64_t w) {
    if (rec_) rec_->witness = w;
  }
  void set_key_b(int32_t b) {
    if (rec_) rec_->key_b = b;
  }
  void set_epoch(int64_t e) {
    if (rec_) rec_->epoch = e;
  }

  ~TraceScope() {
    if (rec_ == nullptr) return;
    lt_->stage_pending(rec_);
  }

 private:
  LaneTrace* lt_ = nullptr;
  TraceRecord* rec_ = nullptr;
};

}  // namespace capture_on

#else  // !C2SL_CAPTURE

inline namespace capture_off {

constexpr int64_t trace_now() { return 0; }

/// Disabled flavour: empty constexpr shells, like telemetry.h's.
/// tests/trace_off_test.cpp constant-evaluates the whole capture path.
struct LaneTrace {
  static constexpr uint64_t kCap = 0;
  constexpr TraceRecord* begin_append() const { return nullptr; }
  constexpr void commit_append() const {}
  constexpr void stage_pending(TraceRecord*) const {}
  constexpr void flush_pending(int64_t) const {}
  constexpr void flush() const {}
  constexpr uint64_t published() const { return 0; }
  constexpr uint64_t dropped() const { return 0; }
};

class StoreTrace {
 public:
  constexpr LaneTrace* lane(int) const { return nullptr; }
  constexpr const LaneTrace* peek_lane(int) const { return nullptr; }
  constexpr void record_event(LaneTrace*, TraceOp, int64_t, int64_t, int64_t,
                              int64_t, int64_t) const {}
  TraceDump dump(int, int) const { return TraceDump{}; }
};

class TraceScope {
 public:
  constexpr TraceScope(LaneTrace*, TraceOp, int64_t, int64_t) {}
  constexpr void set_result(int64_t) const {}
  constexpr void set_witness(int64_t) const {}
  constexpr void set_key_b(int32_t) const {}
  constexpr void set_epoch(int64_t) const {}
};

}  // namespace capture_off

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
