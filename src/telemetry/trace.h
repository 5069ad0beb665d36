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
//     holding the lane), so slots are PLAIN writes into a writer-private
//     segment spine (same doubling geometry as rt::SegmentedArray, but
//     single-writer: segments are allocated UNINITIALISED — every published
//     slot is fully written before the count release, so garbage cells are
//     never readable — and the segment pointers ride the same
//     release/acquire pair as the slots). The only atomics are the
//     release-published count (so a concurrent drain is TSAN-defined), the
//     relaxed segment pointers, and a relaxed drop counter. No RMW, nothing
//     on a decision path.
//   * A slot is 32 bytes (TraceSlot): an op record without time or epoch.
//     Time is a TICK STREAM in the same log: every kTickPeriod-th interval op
//     on a lane, and every point event (open, close, resize), appends a tick
//     slot read at its invoke. The routing epoch is a lane event, appended
//     only when an op's epoch differs from the last one the lane emitted.
//   * A TraceScope keeps its fields locally and writes its slots once, in its
//     destructor (after the op's last step), publishing them with ONE release
//     store. Nothing is staged or pending between ops.
//   * The drain decodes the stream back into wide TraceRecords: t0 is the
//     last tick at or before the slot, t1 the first tick after it (for the
//     trailing slots, a closing tick the drain reads after its acquire of the
//     count), and a point event gets t0 == t1 == its own tick. Each tick was
//     read at some op's invoke, so t0 is never later than the true invoke and
//     t1 never earlier than the true response: intervals only widen, which
//     is the sound direction for the auditor's precedence check (a widened
//     interval can only suppress a constraint, never fabricate one). The
//     witness field carries the order; ticks only bound real time. StoreTrace
//     keeps a (tick, ns) calibration pair from construction and dump() takes
//     a second pair, so export converts ticks to wall nanoseconds without
//     hot-path division.
//   * Appends never block: past LaneTrace::kCap slots the lane counts dropped
//     ops instead of writing, and a lane at its cap reads no clock at all
//     (the auditor refuses a lossy trace unless told otherwise, so a dropped
//     record can never silently pass an audit).
//   * The post-mortem view is this same log: the assert hook prints each
//     lane's last published slots (trace_export.h, dump_trace_tail).
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

/// One captured operation, decoded: the wide form the exporters, tools and
/// tests read (LaneTrace::drain_into rebuilds it from the lane's slots).
/// Fixed 64-byte layout, plain data in both flavours so tests and exporters
/// never need #if.
struct alignas(64) TraceRecord {
  int32_t op = 0;      ///< TraceOp code
  int32_t key_b = -1;  ///< transfer credit bucket; -1 for every other kind
  int64_t key = -1;    ///< journal bucket / shard slot; -1 = not keyed
  int64_t arg = 0;     ///< op argument (value written, amount, key count, ...)
  int64_t result = 0;  ///< op result (prev count, read value, sum, status)
  int64_t witness = -1;  ///< linearization witness (journal ticket / digest
                         ///< FAA value / snapshot tail); -1 = unwitnessed op
  int64_t t0 = 0;      ///< invoke bound, raw ticks (never after the invoke)
  int64_t t1 = 0;      ///< response bound, raw ticks (never before it)
  int64_t epoch = -1;  ///< routing epoch observed by the op; -1 = n/a
};
static_assert(sizeof(TraceRecord) == 64, "one record = one cache line");

/// One lane-log slot: 32 bytes, two to a cache line. The op code tells an op
/// record from the two stream events: a tick (time, in `arg`) and an epoch
/// change (the new epoch, in `arg`). `key_b` rides in the head word above the
/// op code: 25 bits hold -1..2^24-1, and the journal never has more than 2^24
/// buckets (rt::KeyedVersionDigest::kMaxBuckets); `key` is a journal bucket
/// or an int shard slot, so it fits an int32.
struct alignas(32) TraceSlot {
  static constexpr uint32_t kOpBits = 7;
  static constexpr uint32_t kOpMask = (uint32_t{1} << kOpBits) - 1;
  static constexpr int32_t kMaxKeyB = (int32_t{1} << 24) - 1;
  static constexpr uint32_t kTick = kOpMask;       ///< op code of a tick slot
  static constexpr uint32_t kEpoch = kOpMask - 1;  ///< op code of an epoch slot

  uint32_t head = 0;   ///< op code | (key_b + 1) << kOpBits
  int32_t key = -1;    ///< journal bucket / shard slot; -1 = not keyed
  int64_t arg = 0;     ///< op argument; a tick or an epoch for stream events
  int64_t result = 0;  ///< op result
  int64_t witness = -1;  ///< linearization witness; -1 = unwitnessed op

  static constexpr uint32_t pack(uint32_t op, int32_t key_b) {
    return op | static_cast<uint32_t>(key_b + 1) << kOpBits;
  }
  constexpr uint32_t op() const { return head & kOpMask; }
  constexpr int32_t key_b() const {
    return static_cast<int32_t>(head >> kOpBits) - 1;
  }
  static constexpr TraceSlot event(uint32_t code, int64_t value) {
    TraceSlot s;
    s.head = code;
    s.arg = value;
    return s;
  }
};
static_assert(sizeof(TraceSlot) == 32, "two slots per cache line");
static_assert(kTraceOpCount < static_cast<int>(TraceSlot::kEpoch),
              "op codes stay below the stream-event codes");

/// Drained copy of one lane's log, decoded. Plain data, flavour-independent.
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
/// read would cost several times more); steady_clock ns elsewhere
/// (calibration then yields ns_per_tick == ~1). Never negative.
inline int64_t trace_now() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<int64_t>(__builtin_ia32_rdtsc());
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

/// trace_now() ordered after the caller's earlier loads (an lfence on x86,
/// where rdtsc may otherwise run ahead of a pending load). Drain side only.
inline int64_t trace_now_after_loads() {
#if defined(__x86_64__) || defined(__SSE2__)
  __builtin_ia32_lfence();
#endif
  return trace_now();
}

/// Process-lifetime reuse arena for trace segments, keyed by spine slot (all
/// segments in slot s share one size). First-touch page population costs
/// ~1µs/page on virtualised hosts — per-store allocation would re-pay it for
/// every store in a process, which is exactly the overhead the CI capture
/// on-vs-off gate punishes. Recycling retired segments makes the steady state
/// fault-free. Acquire/release run only on the COLD segment-crossing path
/// (once per segment per lane life, never per slot), so a plain mutex is
/// appropriate here: this is allocator infrastructure in the same trust
/// class as ::operator new (which also locks internally), not a step of any
/// traced operation — the no-CAS discipline governs decision paths, and no
/// trace decision runs under this lock. The containers are function-local
/// statics reachable until process exit, so pooled segments are never
/// leak-reported.
class TraceArena {
 public:
  static TraceSlot* acquire(int s) {
    {
      std::lock_guard<std::mutex> g(mu());
      auto& v = lists()[static_cast<size_t>(s)];
      if (!v.empty()) {
        TraceSlot* p = v.back();
        v.pop_back();
        return p;
      }
    }
    return static_cast<TraceSlot*>(::operator new(
        sizeof(TraceSlot) * rt::SegmentedArray<TraceSlot>::segment_size(s),
        std::align_val_t{64}));
  }
  static void release(int s, TraceSlot* p) {
    std::lock_guard<std::mutex> g(mu());
    lists()[static_cast<size_t>(s)].push_back(p);
  }

 private:
  using Lists = std::array<std::vector<TraceSlot*>,
                           rt::SegmentedArray<TraceSlot>::kMaxSegments>;
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static Lists& lists() {
    static Lists* a = new Lists();  // deliberately immortal: see class comment
    return *a;
  }
};

/// One lane's append-only slot log. Single writer (the session owning the
/// lane); any thread may drain concurrently. SPSC publication: the writer
/// fills an op's slots with plain stores, then release-publishes the count;
/// the drainer acquire-loads the count and reads only below it.
///
/// The writer keeps its cursor, a cached window into the current segment (so
/// the steady-state append is pointer arithmetic, not a spine lookup), its
/// tick countdown and the last epoch it emitted as plain private fields.
class alignas(128) LaneTrace {
  using Arr = rt::SegmentedArray<TraceSlot>;  ///< geometry helpers only

 public:
  /// Per-lane slot capacity, on a segment boundary so the spine never opens
  /// a segment it cannot fill: segments 0..13, 1,048,512 slots x 32 B =
  /// 32 MiB/lane worst case, allocated lazily. Beyond it the lane
  /// drops-with-count.
  static constexpr uint64_t kCap = Arr::segment_start(14);
  /// One interval op in kTickPeriod reads the clock (its tick slot).
  static constexpr int kTickPeriod = 16;
  /// invoke_tick()'s "this op is not stamped".
  static constexpr int64_t kNoTick = -1;

  LaneTrace() = default;
  LaneTrace(const LaneTrace&) = delete;
  LaneTrace& operator=(const LaneTrace&) = delete;
  ~LaneTrace() {
    for (int s = 0; s < kSegs; ++s) {
      if (segs_w_[s] != nullptr) TraceArena::release(s, segs_w_[s]);
    }
  }

  /// Writer side, at an op's invoke: false when the lane is full (the drop
  /// is counted; the caller reads no clock and writes nothing).
  bool admit() {
    if (n_ < kCap) return true;
    count_drop();
    return false;
  }

  /// Writer side, at an admitted interval op's invoke: a clock read when
  /// kTickPeriod - 1 interval ops have passed since the lane's last tick
  /// (and for the lane's first op), else kNoTick.
  int64_t invoke_tick() {
    if (until_tick_ == 0) return stamp();
    --until_tick_;
    return kNoTick;
  }

  /// Writer side: an unconditional tick (point events take one each).
  int64_t stamp() {
    until_tick_ = kTickPeriod - 1;
    return trace_now();
  }

  /// Writer side, after the op's last step: its tick slot (when stamped),
  /// an epoch slot (when `epoch` is set and differs from the last one the
  /// lane emitted), then the op slot, all published by one release store.
  /// When they do not fit the op is dropped (counted) and the lane stays
  /// full, so the retained slots are always a prefix of the lane's history.
  /// Inlined into the scope's destructor (see TraceScope).
  [[gnu::always_inline]] void append(int64_t tick, int64_t epoch,
                                     const TraceSlot& op) {
    bool new_epoch = epoch >= 0 && epoch != epoch_;
    uint64_t need = 1 + (tick != kNoTick ? 1 : 0) + (new_epoch ? 1 : 0);
    if (kCap - n_ < need) {
      n_ = kCap;
      count_drop();
      return;
    }
    if (tick != kNoTick) put(TraceSlot::event(TraceSlot::kTick, tick));
    if (new_epoch) {
      epoch_ = epoch;
      put(TraceSlot::event(TraceSlot::kEpoch, epoch));
    }
    put(op);
    uint64_t n = n_;
    // c2sl-atomic: store release — publishes the filled slots to drainers
    // (pairs with the acquire in published())
    published_.store(n, std::memory_order_release);
    // Warm the line of slot n + 1 for writing: it is the line the next
    // append starts (n even) or the one after it (n odd), so every fresh
    // line is requested one op ahead. Without the hint the read-for-ownership
    // miss sits in the store buffer until the next op's locked RMW drains it.
    if (n + 1 < win_hi_) {
      __builtin_prefetch(win_base_ + (n + 1 - win_lo_), 1, 0);
    }
  }

  /// Drain side: copy the newest `tail` published slots (all of them by
  /// default) and return the lane index of the first one copied. Safe
  /// against a concurrent writer — only slots below the acquired count are
  /// touched, and any segment holding such a slot had its pointer stored
  /// before the count was released, so the acquire makes both visible
  /// together.
  uint64_t copy_slots(std::vector<TraceSlot>& out, uint64_t tail = kCap) const {
    uint64_t n = published();
    uint64_t from = n > tail ? n - tail : 0;
    out.reserve(out.size() + static_cast<size_t>(n - from));
    for_each_segment(from, n, [&](const TraceSlot* lo, const TraceSlot* hi) {
      out.insert(out.end(), lo, hi);
    });
    return from;
  }

  /// Drain side: decode the published slots into wide records (see the
  /// header comment): t0 is the last tick at or before the slot, t1 the
  /// first tick after it, or a closing tick read after the acquire of the
  /// count for the trailing ones; a point event's t0 and t1 are its own
  /// tick; max_write, counter_inc and resize carry the lane's current epoch.
  void drain_into(LaneTraceDump& out) const {
    uint64_t n = published();
    int64_t closing = trace_now_after_loads();  // past every response below n
    out.dropped = dropped();
    int64_t tick = 0;    // the lane's first op and every point event stamp
    int64_t epoch = -1;  // no epoch emitted yet
    size_t open = out.records.size();  // first record still without its t1
    for_each_segment(0, n, [&](const TraceSlot* lo, const TraceSlot* hi) {
      for (const TraceSlot* s = lo; s != hi; ++s) {
        uint32_t code = s->op();
        if (code == TraceSlot::kTick) {
          tick = s->arg;
          for (; open < out.records.size(); ++open) out.records[open].t1 = tick;
          continue;
        }
        if (code == TraceSlot::kEpoch) {
          epoch = s->arg;
          continue;
        }
        auto op = static_cast<TraceOp>(code);
        TraceRecord& r = out.records.emplace_back();
        r.op = static_cast<int32_t>(code);
        r.key_b = s->key_b();
        r.key = s->key;
        r.arg = s->arg;
        r.result = s->result;
        r.witness = s->witness;
        r.t0 = tick;
        if (op == TraceOp::kMaxWrite || op == TraceOp::kCounterInc ||
            op == TraceOp::kResize) {
          r.epoch = epoch;
        }
        if (op == TraceOp::kSessionOpen || op == TraceOp::kSessionClose ||
            op == TraceOp::kResize) {
          r.t1 = tick;  // a point event: its tick slot sits right before it
          open = out.records.size();
        }
      }
    });
    // Clamped to the lane's last tick: the closing tick is read on the
    // drain's core, and cross-core TSC skew must not invert an interval.
    if (closing < tick) closing = tick;
    for (; open < out.records.size(); ++open) out.records[open].t1 = closing;
  }

  /// Published slots: op records plus their tick and epoch slots.
  uint64_t published() const {
    // c2sl-atomic: load acquire — pairs with append's release; slots below
    // this count are fully written
    return published_.load(std::memory_order_acquire);
  }

  /// Ops dropped at the cap.
  uint64_t dropped() const {
    // c2sl-atomic: load relaxed — drop-counter read
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  /// Spine slots covering kCap slots under the doubling geometry.
  static constexpr int kSegs = Arr::segment_of(static_cast<size_t>(kCap) - 1) + 1;
  static_assert(Arr::segment_start(kSegs) == kCap, "kCap ends a segment");

  void count_drop() {
    // c2sl-atomic: store relaxed, load relaxed — single-writer drop counter;
    // atomic only so the drain-side read is defined
    dropped_.store(dropped_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }

  /// Writer side: fill the slot at the cursor and advance it (unpublished).
  [[gnu::always_inline]] void put(const TraceSlot& s) {
    uint64_t n = n_;
    if (n < win_lo_ || n >= win_hi_) refresh_window(n);
    win_base_[n - win_lo_] = s;
    n_ = n + 1;
  }

  /// Drain side: f(lo, hi) over the slot runs [from, n) in segment order.
  /// `n` must be an acquired published count.
  template <typename F>
  void for_each_segment(uint64_t from, uint64_t n, F&& f) const {
    for (uint64_t i = from; i < n;) {
      int s = Arr::segment_of(static_cast<size_t>(i));
      uint64_t start = Arr::segment_start(s);
      uint64_t end = start + Arr::segment_size(s);
      if (end > n) end = n;
      // c2sl-atomic: load relaxed — segment pointer; non-null for every
      // segment holding slots below the acquired count (ordering rides the
      // published-count release/acquire pair)
      const TraceSlot* base = segs_[s].load(std::memory_order_relaxed);
      f(base + (i - start), base + (end - start));
      i = end;
    }
  }

  /// Re-aim the cached window at the segment holding index n, allocating the
  /// segment on first touch (cold: runs once per segment crossing,
  /// ~log2(n/64) times over a lane's whole life). The allocation is
  /// deliberately UNINITIALISED (::operator new, no constructors): drainers
  /// read only below the published count, and every such slot was fully
  /// written before its count release — zeroing megabytes of soon-overwritten
  /// cells was a measurable fraction of the capture overhead.
  [[gnu::noinline, gnu::cold]] void refresh_window(uint64_t n) {
    int s = Arr::segment_of(static_cast<size_t>(n));
    TraceSlot* base = segs_w_[s];
    if (base == nullptr) {
      base = TraceArena::acquire(s);
      segs_w_[s] = base;
      // c2sl-atomic: store relaxed — segment-pointer publication to drainers;
      // ordering rides the published-count release (a slot below the count
      // implies its segment pointer was stored before that release)
      segs_[s].store(base, std::memory_order_relaxed);
    }
    win_base_ = base;
    win_lo_ = Arr::segment_start(s);
    win_hi_ = win_lo_ + Arr::segment_size(s);
  }

  uint64_t n_ = 0;  ///< writer-private cursor (plain: single owner)
  TraceSlot* win_base_ = nullptr;  ///< writer-private segment window
  uint64_t win_lo_ = 0;            ///< first index inside the window
  uint64_t win_hi_ = 0;            ///< one past the last window index
  int until_tick_ = 0;   ///< writer-private: interval ops until the next tick
  int64_t epoch_ = -1;   ///< writer-private: last epoch the lane emitted
  TraceSlot* segs_w_[kSegs] = {};  ///< writer-private spine mirror
  std::atomic<TraceSlot*> segs_[kSegs] = {};  ///< drain-visible spine
  std::atomic<uint64_t> published_{0};
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

  /// Point event (open/close/resize): a tick slot, the epoch slot when
  /// `epoch` changed, then the event slot; it decodes with t0 == t1 == its
  /// tick, which is also the response bound of the lane's previous op.
  void record_event(LaneTrace* lt, TraceOp op, int64_t key, int64_t arg,
                    int64_t result, int64_t witness, int64_t epoch) {
    if (lt == nullptr || !lt->admit()) return;
    TraceSlot s;
    s.head = TraceSlot::pack(static_cast<uint32_t>(op), -1);
    s.key = static_cast<int32_t>(key);
    s.arg = arg;
    s.result = result;
    s.witness = witness;
    lt->append(lt->stamp(), epoch, s);
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

/// RAII capture for one interval op. Construction admits the op and, on one
/// op in LaneTrace::kTickPeriod, reads its invoke tick; the setters fill the
/// slot in local fields as the op's own steps reveal its witness/result; the
/// destructor — after the op's last step — writes and publishes the slot
/// once. Sits next to tel::OpScope at the top of every instrumented hot path.
///
/// Construction and destruction are forced inline so the slot's fields stay
/// in registers. An out-of-line destructor reads them back from the stack
/// with wide loads over the setters' narrower stores; such a load cannot be
/// forwarded and waits for the store buffer to drain, and right after a
/// keyed write that buffer holds the journal deposit, a store to a line
/// other lanes write. Measured at 4 threads on a 4-vCPU KVM Xeon with a
/// 2:1:1 inc/write/read mix: update p50 about 500 ns out of line, 420-450
/// inlined.
class TraceScope {
 public:
  [[gnu::always_inline]] TraceScope(LaneTrace* lt, TraceOp op, int64_t key,
                                    int64_t arg) {
    if (lt == nullptr || !lt->admit()) return;  // at cap: drop counted, inert
    lt_ = lt;
    tick_ = lt->invoke_tick();
    slot_.head = TraceSlot::pack(static_cast<uint32_t>(op), -1);
    slot_.key = static_cast<int32_t>(key);
    slot_.arg = arg;
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void set_result(int64_t v) { slot_.result = v; }
  void set_witness(int64_t w) { slot_.witness = w; }
  void set_key_b(int32_t b) { slot_.head = TraceSlot::pack(slot_.op(), b); }
  /// Meaningful for max_write and counter_inc, the ops whose records carry
  /// an epoch.
  void set_epoch(int64_t e) { epoch_ = e; }

  [[gnu::always_inline]] ~TraceScope() {
    if (lt_ != nullptr) lt_->append(tick_, epoch_, slot_);
  }

 private:
  LaneTrace* lt_ = nullptr;
  int64_t tick_ = LaneTrace::kNoTick;
  int64_t epoch_ = -1;
  TraceSlot slot_;
};

}  // namespace capture_on

#else  // !C2SL_CAPTURE

inline namespace capture_off {

constexpr int64_t trace_now() { return 0; }

/// Disabled flavour: empty constexpr shells, like telemetry.h's.
/// tests/trace_off_test.cpp constant-evaluates the whole capture path.
struct LaneTrace {
  static constexpr uint64_t kCap = 0;
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
