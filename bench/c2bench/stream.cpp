#include "stream.h"

#include <cmath>
#include <cstdio>

#include "telemetry/histogram.h"

namespace c2bench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kIngest: return "ingest";
    case Workload::kRequest: return "request";
    case Workload::kAudit: return "audit";
    case Workload::kGrow: return "grow";
  }
  return "unknown";
}

bool parse_workload(std::string_view name, Workload& out) {
  for (int w = 0; w < kWorkloadCount; ++w) {
    if (name == workload_name(static_cast<Workload>(w))) {
      out = static_cast<Workload>(w);
      return true;
    }
  }
  return false;
}

AliasTable::AliasTable(const std::vector<double>& weights) : n_(weights.size()) {
  double total = 0;
  for (double w : weights) total += w;
  std::vector<double> scaled(n_);
  std::vector<uint64_t> small, large;
  for (uint64_t i = 0; i < n_; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n_) / total;
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  std::vector<double> prob(n_, 1.0);
  alias_.assign(n_, 0);
  for (uint64_t i = 0; i < n_; ++i) alias_[i] = static_cast<uint32_t>(i);
  while (!small.empty() && !large.empty()) {
    uint64_t s = small.back();
    small.pop_back();
    uint64_t l = large.back();
    prob[s] = scaled[s];
    alias_[s] = static_cast<uint32_t>(l);
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are 1.0 up to rounding: keep them unconditionally.
  threshold_.resize(n_);
  for (uint64_t i = 0; i < n_; ++i) {
    double p = prob[i] * 4294967296.0;
    threshold_[i] = p >= 4294967295.0 ? 0xffffffffu : static_cast<uint32_t>(p);
  }
}

AliasTable AliasTable::zipf(uint64_t n, double theta) {
  std::vector<double> w(n);
  for (uint64_t r = 0; r < n; ++r) w[r] = 1.0 / std::pow(static_cast<double>(r + 1), theta);
  return AliasTable(w);
}

uint64_t ops_per_thread_second(Workload w) {
  switch (w) {
    case Workload::kIngest: return 1'400'000;
    case Workload::kRequest: return 145'000;
    case Workload::kAudit: return 2'000'000;
    case Workload::kGrow: return 1'300'000;
  }
  return 0;
}

Spec make_spec(Workload w, uint64_t seed, int threads, double seconds, double scale) {
  Spec s;
  s.workload = w;
  s.seed = seed;
  s.base = stream_base(seed, w);
  s.threads = threads;
  s.max_value = 63 / threads;
  s.measured_ops = static_cast<uint64_t>(
      static_cast<double>(ops_per_thread_second(w)) * seconds * scale);
  if (s.measured_ops < 64) s.measured_ops = 64;
  s.warmup_ops = s.measured_ops / 32;
  switch (w) {
    case Workload::kIngest:
      s.initial_shards = s.final_shards = 16;
      s.key_count = 4096;
      s.zipf = AliasTable::zipf(s.key_count, 0.99);
      break;
    case Workload::kRequest:
      s.initial_shards = s.final_shards = 1024;
      s.key_count = kRequestKeyCount;
      break;
    case Workload::kAudit:
      s.initial_shards = s.final_shards = 64;
      s.key_count = 64;
      break;
    case Workload::kGrow:
      s.initial_shards = 4;
      s.final_shards = 64;
      s.key_count = 4096;
      s.zipf = AliasTable::zipf(s.key_count, 0.99);
      // Four doublings at fixed op indices of thread 0, early in the measured
      // phase: migration re-adds each counter one F&I at a time and a child
      // slot inherits its parent's whole count, so later doublings would
      // spend most of thread 0's run inside resize().
      for (uint64_t k = 1; k <= 4; ++k) {
        s.resize_at.push_back(s.warmup_ops + s.measured_ops * k / 50);
      }
      break;
  }
  return s;
}

namespace {
// Per-mille op mixes.
struct MixRow {
  OpKind kind;
  int permille;
};
constexpr MixRow kIngestMix[] = {
    {OpKind::kInc, 400},         {OpKind::kWriteMax, 250},
    {OpKind::kSetPut, 100},      {OpKind::kSetTake, 50},
    {OpKind::kTas, 50},          {OpKind::kCounterRead, 40},
    {OpKind::kMaxRead, 40},      {OpKind::kTasRead, 20},
    {OpKind::kCounterSum, 25},   {OpKind::kGlobalMax, 25}};
constexpr MixRow kGrowMix[] = {
    {OpKind::kWriteMax, 400},    {OpKind::kInc, 200},
    {OpKind::kCounterRead, 120}, {OpKind::kMaxRead, 120},
    {OpKind::kTasRead, 60},      {OpKind::kTas, 50},
    {OpKind::kCounterSum, 50}};
constexpr MixRow kAuditMix[] = {{OpKind::kTransfer, 700}, {OpKind::kSnapshot, 300}};

template <size_t N>
OpKind pick(const MixRow (&mix)[N], uint64_t r) {
  int x = static_cast<int>(below(r, 1000));
  for (const MixRow& m : mix) {
    if (x < m.permille) return m.kind;
    x -= m.permille;
  }
  return mix[N - 1].kind;
}
}  // namespace

Op gen_op(const Spec& s, int t, uint64_t i) {
  Op op;
  uint64_t r0 = draw(s.base, t, i);
  switch (s.workload) {
    case Workload::kIngest:
    case Workload::kGrow: {
      op.kind = s.workload == Workload::kIngest ? pick(kIngestMix, r0) : pick(kGrowMix, r0);
      op.key = static_cast<uint32_t>(s.zipf.sample(draw(s.base, t, i, 1)));
      if (op.kind == OpKind::kWriteMax) {
        op.arg = 1 + static_cast<int64_t>(
                         below(draw(s.base, t, i, 2), static_cast<uint64_t>(s.max_value)));
      } else if (op.kind == OpKind::kSetPut) {
        op.arg = set_item(t, i);
      }
      break;
    }
    case Workload::kRequest:
      op.kind = OpKind::kRequest;
      break;
    case Workload::kAudit: {
      op.kind = pick(kAuditMix, r0);
      if (op.kind == OpKind::kTransfer) {
        uint64_t a = below(draw(s.base, t, i, 1), 64);
        op.key = static_cast<uint32_t>(a);
        op.key2 = static_cast<uint32_t>((a + 1 + below(draw(s.base, t, i, 2), 63)) % 64);
        op.arg = 1 + static_cast<int64_t>(below(draw(s.base, t, i, 3), 100));
      }
      break;
    }
  }
  return op;
}

NameTable::NameTable(int count) : chars_(static_cast<size_t>(count) * kWidth, '\0') {
  char buf[32];
  for (int k = 0; k < count; ++k) {
    std::snprintf(buf, sizeof buf, "user:%07d/profile", k);
    chars_.replace(static_cast<size_t>(k) * kWidth, kWidth, buf, kWidth);
  }
}

double Histogram::quantile(double q) const {
  if (n_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(c2sl::tel::nearest_rank_index(n_, q)) + 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    uint64_t c = counts_[static_cast<size_t>(b)];
    if (seen + c >= target) {
      double within = (static_cast<double>(target - seen) - 0.5) / static_cast<double>(c);
      return static_cast<double>(bucket_lo(b)) +
             within * static_cast<double>(bucket_width(b));
    }
    seen += c;
  }
  return static_cast<double>(max_);
}

}  // namespace c2bench
