// c2bench input side: a counter-based generator, the Zipf alias table, the
// per-workload op streams and the log-linear latency histogram.
//
// Op i of thread t is a pure function of (seed, workload, t, i): nothing is
// pre-generated, and the checker regenerates the exact stream the workers
// ran. The generator is the SplitMix64 finalizer over a mixed counter, so a
// stream can be entered at any index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace c2bench {

enum class Workload : int { kIngest = 0, kRequest = 1, kAudit = 2, kGrow = 3 };
inline constexpr int kWorkloadCount = 4;

const char* workload_name(Workload w);
/// Parses a workload name; returns false on an unknown name.
bool parse_workload(std::string_view name, Workload& out);

// --- counter-based generator ---------------------------------------------

inline uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The random word for draw `k` of op `i` of thread `t` in stream `base`
/// (base = stream_base(seed, workload)).
inline uint64_t draw(uint64_t base, int t, uint64_t i, uint64_t k = 0) {
  uint64_t x = mix64(base ^ (static_cast<uint64_t>(t) + 1) * 0x9e3779b97f4a7c15ULL);
  x = mix64(x + i * 0xd1b54a32d192ed03ULL);
  return k == 0 ? x : mix64(x + k * 0x8cb92ba72f3d8dd7ULL);
}

inline uint64_t stream_base(uint64_t seed, Workload w) {
  return mix64(seed * 0xa0761d6478bd642fULL + static_cast<uint64_t>(w) + 1);
}

/// Uniform integer in [0, n) from one random word (multiply-shift).
inline uint64_t below(uint64_t r, uint64_t n) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(r) * n) >> 64);
}

/// Walker/Vose alias table: O(1) sampling of a fixed discrete distribution
/// from one random word.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(const std::vector<double>& weights);
  /// Zipf(theta) over ranks 0..n-1 (rank 0 hottest).
  static AliasTable zipf(uint64_t n, double theta);

  uint64_t sample(uint64_t r) const {
    uint64_t i = below(r, n_);
    // The low 32 bits are independent enough of the high bits `below` used.
    uint32_t u = static_cast<uint32_t>(r);
    return u < threshold_[i] ? i : alias_[i];
  }
  uint64_t size() const { return n_; }

 private:
  uint64_t n_ = 0;
  std::vector<uint32_t> threshold_;  ///< keep i when u < threshold (of 2^32)
  std::vector<uint32_t> alias_;
};

// --- ops -------------------------------------------------------------------

enum class OpKind : uint8_t {
  kInc,
  kWriteMax,
  kSetPut,
  kSetTake,
  kTas,
  kCounterRead,
  kMaxRead,
  kTasRead,
  kCounterSum,
  kGlobalMax,
  kTransfer,
  kSnapshot,
  kRequest,  ///< request workload: open, 8 one-shot string-key calls, close
  kCount,
};

/// One generated op. `key` is a key index (a Zipf rank scrambled into the
/// key space, a request key number, or a bucket number); `key2` is the
/// transfer's credit bucket; `arg` the written value, put item or amount.
struct Op {
  OpKind kind = OpKind::kCount;
  uint32_t key = 0;
  uint32_t key2 = 0;
  int64_t arg = 0;
};

/// The calls of one request, in order.
inline constexpr OpKind kRequestCalls[8] = {
    OpKind::kCounterRead, OpKind::kMaxRead, OpKind::kCounterRead,
    OpKind::kTasRead,     OpKind::kInc,     OpKind::kMaxRead,
    OpKind::kWriteMax,    OpKind::kCounterRead};
inline constexpr int kRequestKeyCount = 1 << 20;

/// Shape of one workload; everything the generator, the workers and the checker
/// share. Built by make_spec().
struct Spec {
  Workload workload = Workload::kIngest;
  uint64_t seed = 0;
  uint64_t base = 0;           ///< stream_base(seed, workload)
  int threads = 1;
  int initial_shards = 16;
  int final_shards = 16;       ///< grow: after its four doublings
  int64_t max_value = 15;      ///< 63 / threads, as store_config() packs it
  uint64_t warmup_ops = 0;     ///< per thread, excluded from the metrics
  uint64_t measured_ops = 0;   ///< per thread
  uint64_t key_count = 0;      ///< distinct keys the stream draws from
  AliasTable zipf;             ///< ingest/grow key ranks
  /// grow: thread 0 resizes before these op indices (absolute, measured).
  std::vector<uint64_t> resize_at;

  uint64_t total_ops() const { return warmup_ops + measured_ops; }
};

/// Full-size per-thread ops for one second of measured phase on a 4-vCPU
/// x86 host; a run's op count is this times --seconds, so it is fixed by the
/// arguments and never by the speed of the code under test.
uint64_t ops_per_thread_second(Workload w);

/// Builds the spec. `scale` multiplies the op counts (smoke/self-tests).
Spec make_spec(Workload w, uint64_t seed, int threads, double seconds,
               double scale = 1.0);

/// Integer key for key index k in ingest/grow/audit (scrambled so Zipf ranks
/// spread over the hash space independently of the store's own hash).
inline uint64_t int_key(uint32_t k) { return mix64(k + 0x51ed270b27a4f3c9ULL); }

/// Op i of thread t. Pure: the workers and the checker both call this.
Op gen_op(const Spec& s, int t, uint64_t i);

/// Request call j's key number for request op `i` of thread `t`.
inline uint32_t request_key(const Spec& s, int t, uint64_t i, int j) {
  return static_cast<uint32_t>(
      below(draw(s.base, t, i, static_cast<uint64_t>(j) + 1), kRequestKeyCount));
}
/// Value written by the request's max_write call.
inline int64_t request_write_value(const Spec& s, int t, uint64_t i) {
  return 1 + static_cast<int64_t>(below(draw(s.base, t, i, 9),
                                        static_cast<uint64_t>(s.max_value)));
}

/// Fixed-width request key names, "user:NNNNNNN/profile", built at set-up.
class NameTable {
 public:
  static constexpr size_t kWidth = 20;
  explicit NameTable(int count);
  std::string_view name(uint32_t k) const {
    return std::string_view(chars_.data() + k * kWidth, kWidth);
  }

 private:
  std::string chars_;
};

/// Set items are unique per (thread, op index): they decode back to the op
/// that put them, which is how the checker proves a taken item was put.
inline int64_t set_item(int t, uint64_t i) {
  return (static_cast<int64_t>(t) << 40) | static_cast<int64_t>(i);
}
inline int item_thread(int64_t item) { return static_cast<int>(item >> 40); }
inline uint64_t item_index(int64_t item) {
  return static_cast<uint64_t>(item) & ((uint64_t{1} << 40) - 1);
}

// --- latency histogram -----------------------------------------------------

/// Log-linear histogram: exact below 64 ns, then 64 buckets per power of two,
/// so a bucket is at most 1/64 of its power of two wide. Single writer.
class Histogram {
 public:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = kSub + (64 - 6) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  static int bucket_of(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    int e = 63 - __builtin_clzll(v);  // floor(log2 v) >= 6
    int shift = e - 6;
    return kSub + shift * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static uint64_t bucket_lo(int b) {
    if (b < kSub) return static_cast<uint64_t>(b);
    int shift = (b - kSub) / kSub;
    return (static_cast<uint64_t>(kSub) + static_cast<uint64_t>((b - kSub) % kSub))
           << shift;
  }
  static uint64_t bucket_width(int b) {
    return b < kSub ? 1 : uint64_t{1} << ((b - kSub) / kSub);
  }

  void record(uint64_t v) {
    ++counts_[static_cast<size_t>(bucket_of(v))];
    ++n_;
    if (v > max_) max_ = v;
  }
  void merge(const Histogram& o) {
    for (int b = 0; b < kBuckets; ++b) counts_[static_cast<size_t>(b)] += o.counts_[static_cast<size_t>(b)];
    n_ += o.n_;
    if (o.max_ > max_) max_ = o.max_;
  }
  uint64_t count() const { return n_; }
  uint64_t max() const { return max_; }

  /// Nearest-rank quantile (the repository's rule, tel::nearest_rank_index),
  /// placed inside its bucket by linear interpolation over the bucket's
  /// samples, so it always lies in the bucket holding the exact order
  /// statistic. 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
  uint64_t max_ = 0;
};

}  // namespace c2bench
