#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "service/c2store.h"

namespace c2bench {

using c2sl::svc::C2Session;
using c2sl::svc::C2Store;
using c2sl::svc::hash_key;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double RunResult::throughput_mops() const {
  double sum = 0;
  for (double r : thread_rate) sum += r;
  return sum / 1e6;
}

double RunResult::setup_median() const { return median(setup_seconds); }

c2sl::svc::C2StoreConfig store_config(int shards, int threads) {
  c2sl::svc::C2StoreConfig c;
  c.initial_shards = shards;
  c.max_threads = threads;
  c.max_value = 63 / threads;
  c.tas_max_resets = 0;
  return c;
}

namespace {

/// audit: the smallest integer key index in each journal bucket, so that
/// every snapshot component and transfer end names exactly one bucket.
std::vector<uint64_t> audit_bucket_keys(int buckets) {
  std::vector<uint64_t> keys(static_cast<size_t>(buckets), 0);
  int found = 0;
  std::vector<bool> have(static_cast<size_t>(buckets), false);
  for (uint32_t k = 0; found < buckets; ++k) {
    auto b = static_cast<size_t>(hash_key(int_key(k)) & static_cast<uint64_t>(buckets - 1));
    if (!have[b]) {
      have[b] = true;
      keys[b] = int_key(k);
      ++found;
    }
  }
  return keys;
}

/// Shared, read-only state of one set-up.
struct Context {
  Spec spec;
  std::unique_ptr<NameTable> names;   ///< request
  std::vector<uint64_t> bucket_keys;  ///< audit
  std::unique_ptr<C2Store> store;
};

/// One client thread: its session, cached refs and private results.
class Worker {
 public:
  Worker(Context& ctx, int t, bool spans) : ctx_(ctx), s_(ctx.spec), t_(t), spans_(spans) {}

  void setup() {
    obs_.tas_zero.assign(static_cast<size_t>(s_.final_shards), 0);
    // request threads hold no session between requests: each request opens
    // its own, and lanes == threads.
    if (s_.workload == Workload::kRequest) return;
    int64_t t0 = now_ns();
    session_ = ctx_.store->open_session();
    span(SpanName::kOpen, setup_id(), false, t0, now_ns());
    if (s_.workload == Workload::kIngest || s_.workload == Workload::kGrow) {
      auto n = static_cast<size_t>(s_.key_count);
      ctr_.reserve(n);
      mx_.reserve(n);
      tas_.reserve(n);
      set_.reserve(n);
      for (uint32_t k = 0; k < s_.key_count; ++k) {
        uint64_t key = int_key(k);
        int64_t b0 = now_ns();
        ctr_.push_back(session_.counter(key));
        if (k % kSpanSample == 0) span(SpanName::kBind, setup_id(), false, b0, now_ns());
        mx_.push_back(session_.max(key));
        tas_.push_back(session_.tas(key));
        set_.push_back(session_.set(key));
      }
    } else if (s_.workload == Workload::kAudit) {
      std::vector<c2sl::svc::SnapKey> keys;
      for (uint64_t k : ctx_.bucket_keys) keys.push_back(c2sl::svc::SnapKey::counter(k));
      int64_t b0 = now_ns();
      snap_.emplace(session_.snapshot_ref(keys));
      span(SpanName::kBind, setup_id(), false, b0, now_ns());
    }
  }

  void warmup() {
    for (uint64_t i = 0; i < s_.warmup_ops; ++i) step(i, false);
    for (Histogram& h : hist_) h = Histogram();
    calls_ = 0;
    failed_ = 0;
  }

  /// The measured phase, in kRounds equal slices of the op stream. Every
  /// thread starts a round together; a round's rate is its completed calls
  /// over the thread's own time in it, so waiting at the rendezvous is not
  /// counted and a failed call adds nothing.
  void measure(Rendezvous& rounds) {
    size_t next_resize = 0;
    uint64_t i = s_.warmup_ops;
    for (int round = 0; round < kRounds; ++round) {
      uint64_t end = s_.warmup_ops + s_.measured_ops * static_cast<uint64_t>(round + 1) / kRounds;
      rounds.arrive_and_wait();
      uint64_t done0 = completed();
      int64_t t0 = now_ns();
      for (; i < end; ++i) {
        if (t_ == 0 && next_resize < s_.resize_at.size() && s_.resize_at[next_resize] == i) {
          resize(i);
          ++next_resize;
        }
        step(i, spans_ && i % kSpanSample == 0);
      }
      double secs = static_cast<double>(now_ns() - t0) / 1e9;
      elapsed_s_ += secs;
      round_rate_.push_back(static_cast<double>(completed() - done0) / secs);
      round_hist_.emplace_back(hist_, hist_ + static_cast<int>(Cls::kCount));
      for (Histogram& h : hist_) h = Histogram();
    }
    rate_ = static_cast<double>(completed()) / elapsed_s_;
  }

  void close() {
    if (!session_.valid()) return;
    int64_t t0 = now_ns();
    session_.close();
    span(SpanName::kClose, setup_id(), false, t0, now_ns());
  }

  void collect(RunResult& r) {
    r.round_rate.resize(round_rate_.size(), 0.0);
    r.round_hist.resize(round_hist_.size(), std::vector<Histogram>(static_cast<int>(Cls::kCount)));
    for (size_t k = 0; k < round_rate_.size(); ++k) {
      r.round_rate[k] += round_rate_[k];
      for (int c = 0; c < static_cast<int>(Cls::kCount); ++c) {
        r.hist[c].merge(round_hist_[k][static_cast<size_t>(c)]);
        r.round_hist[k][static_cast<size_t>(c)].merge(round_hist_[k][static_cast<size_t>(c)]);
      }
    }
    r.thread_rate.push_back(rate_);
    r.measured_seconds = std::max(r.measured_seconds, elapsed_s_);
    r.calls += calls_;
    r.failed += failed_;
    r.resize_seconds += resize_ns_ / 1e9;
    r.snapshot_entries += snapshot_entries_;
    r.snapshots += snapshots_;
    Observed& o = r.obs;
    o.taken.insert(o.taken.end(), obs_.taken.begin(), obs_.taken.end());
    if (o.tas_zero.size() < obs_.tas_zero.size()) o.tas_zero.resize(obs_.tas_zero.size(), 0);
    for (size_t b = 0; b < obs_.tas_zero.size(); ++b) o.tas_zero[b] += obs_.tas_zero[b];
    o.torn_snapshots += obs_.torn_snapshots;
    o.aggregate_regressions += obs_.aggregate_regressions;
    o.tas_read_nonzero += obs_.tas_read_nonzero;
    o.resizes_installed += obs_.resizes_installed;
    o.resizes_failed += obs_.resizes_failed;
    r.spans.threads.push_back(std::move(spans_buf_));
  }

 private:
  uint64_t completed() const { return calls_ - failed_; }
  uint64_t setup_id() { return (uint64_t{1} << 63) | setup_seq_++; }
  uint64_t op_id(uint64_t i) const { return (static_cast<uint64_t>(t_) << 40) | i; }

  void span(SpanName n, uint64_t id, bool child, int64_t t0, int64_t t1) {
    if (spans_) spans_buf_.add(n, id, child, t0, t1);
  }

  void timed(Cls c, int64_t t0, int64_t t1) {
    hist_[static_cast<int>(c)].record(static_cast<uint64_t>(t1 - t0));
  }

  void step(uint64_t i, bool sampled) {
    Op op = gen_op(s_, t_, i);
    try {
      if (op.kind == OpKind::kRequest) {
        request(i, sampled);
      } else {
        ++calls_;
        keyed(op, i, sampled);
      }
    } catch (const std::exception&) {
      ++failed_;
    }
  }

  void keyed(const Op& op, uint64_t i, bool sampled) {
    Cls cls = Cls::kUpdate;
    SpanName name = SpanName::kOp;
    int64_t t0 = now_ns();
    switch (op.kind) {
      case OpKind::kInc: ctr_[op.key].inc(); break;
      case OpKind::kWriteMax: mx_[op.key].write(op.arg); break;
      case OpKind::kSetPut: set_[op.key].put(op.arg); break;
      case OpKind::kSetTake: {
        int64_t v = set_[op.key].take();
        if (v != C2Store::kEmpty) obs_.taken.emplace_back(v, op.key);
        break;
      }
      case OpKind::kTas:
        if (tas_[op.key].test_and_set() == 0) {
          ++obs_.tas_zero[static_cast<size_t>(tas_[op.key].shard())];
        }
        break;
      case OpKind::kCounterRead: cls = Cls::kRead; ctr_[op.key].read(); break;
      case OpKind::kMaxRead: cls = Cls::kRead; mx_[op.key].read(); break;
      case OpKind::kTasRead: cls = Cls::kRead; tas_[op.key].read(); break;
      case OpKind::kCounterSum: {
        cls = Cls::kScan;
        int64_t v = session_.counter_sum();
        if (v < last_sum_) ++obs_.aggregate_regressions;
        last_sum_ = v;
        break;
      }
      case OpKind::kGlobalMax: {
        cls = Cls::kScan;
        int64_t v = session_.global_max();
        if (v < last_max_) ++obs_.aggregate_regressions;
        last_max_ = v;
        break;
      }
      case OpKind::kTransfer:
        session_.transfer(ctx_.bucket_keys[op.key], ctx_.bucket_keys[op.key2], op.arg);
        break;
      case OpKind::kSnapshot: {
        cls = Cls::kScan;
        name = SpanName::kSnapshot;
        std::vector<int64_t> v = snap_->read();
        int64_t sum = 0;
        for (int64_t x : v) sum += x;
        if (sum != 0) ++obs_.torn_snapshots;
        ++snapshots_all_;
        break;
      }
      case OpKind::kRequest:
      case OpKind::kCount: break;
    }
    int64_t t1 = now_ns();
    timed(cls, t0, t1);
    if (sampled) {
      span(name, op_id(i), false, t0, t1);
      if (op.kind == OpKind::kSnapshot) {
        // Journal entries per snapshot: the tail advance since this thread's
        // previous sampled snapshot, over the snapshots it took in between
        // (each replays exactly what was appended since its predecessor).
        // Read outside the timed window, traced pass only.
        int64_t tail = ctx_.store->journal_tickets();
        if (last_tail_ >= 0) {
          snapshot_entries_ += tail - last_tail_;
          snapshots_ += snapshots_all_ - last_snapshots_all_;
        }
        last_tail_ = tail;
        last_snapshots_all_ = snapshots_all_;
      }
    }
  }

  /// open, eight one-shot string-key calls, close. Sampled requests split
  /// each call into its bind and op spans (the same two steps the one-shot
  /// convenience performs).
  void request(uint64_t i, bool sampled) {
    uint64_t id = op_id(i);
    int64_t r0 = now_ns();
    C2Session s = ctx_.store->open_session_for(std::chrono::milliseconds(100));
    int64_t r1 = now_ns();
    calls_ += 1;
    if (!s.valid()) {  // open timed out: an error status
      ++failed_;
      return;
    }
    if (sampled) span(SpanName::kOpen, id, true, r0, r1);
    for (int j = 0; j < 8; ++j) {
      OpKind k = kRequestCalls[j];
      std::string_view key = ctx_.names->name(request_key(s_, t_, i, j));
      ++calls_;
      int64_t t0 = now_ns();
      if (sampled) {
        request_call_split(s, k, key, i, id, t0);
        continue;
      }
      switch (k) {
        case OpKind::kCounterRead: s.counter_read(key); break;
        case OpKind::kMaxRead: s.max_read(key); break;
        case OpKind::kTasRead:
          if (s.tas_read(key) != 0) ++obs_.tas_read_nonzero;
          break;
        case OpKind::kInc: s.counter_inc(key); break;
        case OpKind::kWriteMax: s.max_write(key, request_write_value(s_, t_, i)); break;
        default: break;
      }
      timed(k == OpKind::kInc || k == OpKind::kWriteMax ? Cls::kUpdate : Cls::kRead, t0,
            now_ns());
    }
    int64_t c0 = now_ns();
    s.close();
    int64_t c1 = now_ns();
    calls_ += 1;
    timed(Cls::kRequest, r0, c1);
    if (sampled) {
      span(SpanName::kClose, id, true, c0, c1);
      span(SpanName::kRequest, id, false, r0, c1);
    }
  }

  void request_call_split(C2Session& s, OpKind k, std::string_view key, uint64_t i, uint64_t id,
                          int64_t t0) {
    bool update = k == OpKind::kInc || k == OpKind::kWriteMax;
    int64_t b1 = 0;
    switch (k) {
      case OpKind::kCounterRead:
      case OpKind::kInc: {
        c2sl::svc::CounterRef r = s.counter(key);
        b1 = now_ns();
        if (update) {
          r.inc();
        } else {
          r.read();
        }
        break;
      }
      case OpKind::kMaxRead:
      case OpKind::kWriteMax: {
        c2sl::svc::MaxRef r = s.max(key);
        b1 = now_ns();
        if (update) {
          r.write(request_write_value(s_, t_, i));
        } else {
          r.read();
        }
        break;
      }
      case OpKind::kTasRead: {
        c2sl::svc::TasRef r = s.tas(key);
        b1 = now_ns();
        if (r.read() != 0) ++obs_.tas_read_nonzero;
        break;
      }
      default: break;
    }
    int64_t t1 = now_ns();
    timed(update ? Cls::kUpdate : Cls::kRead, t0, t1);
    span(SpanName::kBind, id, true, t0, b1);
    span(SpanName::kOp, id, true, b1, t1);
  }

  void resize(uint64_t i) {
    ++calls_;
    int64_t t0 = now_ns();
    auto st = session_.resize(ctx_.store->shard_count() * 2);
    int64_t t1 = now_ns();
    resize_ns_ += static_cast<double>(t1 - t0);
    span(SpanName::kResize, op_id(i) | (uint64_t{1} << 62), false, t0, t1);
    if (st == c2sl::svc::ResizeStatus::kInstalled) {
      ++obs_.resizes_installed;
    } else {
      ++obs_.resizes_failed;
      ++failed_;
    }
  }

  Context& ctx_;
  const Spec& s_;
  int t_;
  bool spans_;
  C2Session session_;
  std::vector<c2sl::svc::CounterRef> ctr_;
  std::vector<c2sl::svc::MaxRef> mx_;
  std::vector<c2sl::svc::TasRef> tas_;
  std::vector<c2sl::svc::SetRef> set_;
  std::optional<c2sl::svc::SnapshotRef> snap_;
  Histogram hist_[static_cast<int>(Cls::kCount)];
  uint64_t calls_ = 0;
  uint64_t failed_ = 0;
  double rate_ = 0;
  double elapsed_s_ = 0;
  std::vector<double> round_rate_;
  std::vector<std::vector<Histogram>> round_hist_;
  double resize_ns_ = 0;
  int64_t last_sum_ = 0;
  int64_t last_max_ = 0;
  int64_t last_tail_ = -1;
  int64_t snapshots_all_ = 0;
  int64_t last_snapshots_all_ = 0;
  int64_t snapshot_entries_ = 0;
  int64_t snapshots_ = 0;
  uint64_t setup_seq_ = 0;
  Observed obs_;
  SpanBuf spans_buf_;
};

/// Per-shard heat imbalance (max over mean of the store's shard_ops gauges),
/// or -1 for a store built before the gauges existed.
template <typename M>
double heat_imbalance(const M& m) {
  if constexpr (requires { m.shard_ops; }) {
    uint64_t mx = 0;
    uint64_t sum = 0;
    for (uint64_t c : m.shard_ops) {
      mx = std::max(mx, c);
      sum += c;
    }
    if (sum == 0) return 1.0;
    return static_cast<double>(mx) * static_cast<double>(m.shard_ops.size()) /
           static_cast<double>(sum);
  } else {
    return -1;
  }
}

/// Witness-trace record and drop counts across lanes, or -1 for a store
/// built before the trace existed.
template <typename S>
void trace_counts(const S& store, int lanes, int64_t& records, int64_t& dropped) {
  if constexpr (requires { store.trace(); }) {
    records = 0;
    dropped = 0;
    for (int i = 0; i < lanes; ++i) {
      if (const auto* lt = store.trace().peek_lane(i)) {
        records += static_cast<int64_t>(lt->published());
        dropped += static_cast<int64_t>(lt->dropped());
      }
    }
  }
}

void read_quiescent(Context& ctx, RunResult& r) {
  const Spec& s = ctx.spec;
  C2Store& st = *ctx.store;
  Observed& o = r.obs;
  o.counter_sum = st.counter_sum();
  o.global_max = st.global_max();
  o.journal_tickets = st.journal_tickets();
  o.shard_count = st.shard_count();
  C2Session ses = st.open_session();
  if (s.workload == Workload::kIngest || s.workload == Workload::kRequest) {
    auto n = static_cast<size_t>(o.shard_count);
    o.shard_counter.assign(n, -1);
    o.shard_max.assign(n, -1);
    size_t filled = 0;
    for (uint32_t k = 0; k < s.key_count && filled < n; ++k) {
      size_t b = 0;
      int64_t c = 0;
      int64_t m = 0;
      if (s.workload == Workload::kIngest) {
        b = static_cast<size_t>(st.shard_of(int_key(k)));
        if (o.shard_counter[b] >= 0) continue;
        c = ses.counter_read(int_key(k));
        m = ses.max_read(int_key(k));
      } else {
        std::string_view name = ctx.names->name(k);
        b = static_cast<size_t>(st.shard_of(name));
        if (o.shard_counter[b] >= 0) continue;
        c = ses.counter_read(name);
        m = ses.max_read(name);
      }
      o.shard_counter[b] = c;
      o.shard_max[b] = m;
      ++filled;
    }
  } else if (s.workload == Workload::kAudit) {
    std::vector<c2sl::svc::SnapKey> keys;
    for (uint64_t k : ctx.bucket_keys) keys.push_back(c2sl::svc::SnapKey::counter(k));
    o.final_snapshot = ses.snapshot(keys);
  }
  ses.close();

  c2sl::tel::MetricsSnapshot m = st.metrics_snapshot();
  r.ops_total = m.ops_total;
  r.shard_heat_imbalance = heat_imbalance(m);
  r.initialized_shards = st.initialized_shards();
  trace_counts(st, s.threads, r.trace_records, r.trace_dropped);
}

}  // namespace

RunResult run_workload(const Spec& spec, const RunOptions& opts) {
  RunResult r;
  for (int k = 0; k < opts.setups; ++k) {
    const bool last = k + 1 == opts.setups;
    int64_t t0 = now_ns();
    Context ctx;
    ctx.spec = spec;
    if (spec.zipf.size() != 0) ctx.spec.zipf = AliasTable::zipf(spec.key_count, 0.99);
    if (spec.workload == Workload::kRequest) ctx.names = std::make_unique<NameTable>(kRequestKeyCount);
    if (spec.workload == Workload::kAudit) ctx.bucket_keys = audit_bucket_keys(spec.initial_shards);
    ctx.store = std::make_unique<C2Store>(store_config(spec.initial_shards, spec.threads));

    std::vector<std::unique_ptr<Worker>> workers;
    for (int t = 0; t < spec.threads; ++t) {
      workers.push_back(std::make_unique<Worker>(ctx, t, opts.spans && last));
    }
    Rendezvous ready(spec.threads + 1);
    Rendezvous go(spec.threads + 1);
    Rendezvous rounds(spec.threads);
    std::vector<std::thread> threads;
    for (int t = 0; t < spec.threads; ++t) {
      threads.emplace_back([&, t] {
        Worker& w = *workers[static_cast<size_t>(t)];
        w.setup();
        w.warmup();
        ready.arrive_and_wait();
        if (last) {
          go.arrive_and_wait();
          w.measure(rounds);
        }
        w.close();
      });
    }
    ready.arrive_and_wait();
    r.setup_seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (last) go.arrive_and_wait();
    for (std::thread& th : threads) th.join();
    if (!last) continue;
    for (auto& w : workers) w->collect(r);
    read_quiescent(ctx, r);
  }
  return r;
}

// --- checker -----------------------------------------------------------------

namespace {

struct Model {
  std::vector<int64_t> shard_inc;
  std::vector<int64_t> shard_max;
  std::vector<int64_t> net;  ///< audit: per-bucket ledger balance
  int64_t incs = 0;
  int64_t writes = 0;
  int64_t max_all = 0;
  int64_t transfers = 0;

  void merge(const Model& o) {
    for (size_t b = 0; b < shard_inc.size(); ++b) {
      shard_inc[b] += o.shard_inc[b];
      shard_max[b] = std::max(shard_max[b], o.shard_max[b]);
    }
    for (size_t b = 0; b < net.size(); ++b) net[b] += o.net[b];
    incs += o.incs;
    writes += o.writes;
    max_all = std::max(max_all, o.max_all);
    transfers += o.transfers;
  }
};

size_t slot(uint64_t hash, int shards) {
  return static_cast<size_t>(hash & static_cast<uint64_t>(shards - 1));
}

void model_thread(const Spec& s, const NameTable* names, int t, Model& m) {
  auto apply = [&m](OpKind k, size_t b, int64_t v) {
    if (k == OpKind::kInc) {
      ++m.incs;
      ++m.shard_inc[b];
    } else if (k == OpKind::kWriteMax) {
      ++m.writes;
      m.shard_max[b] = std::max(m.shard_max[b], v);
      m.max_all = std::max(m.max_all, v);
    }
  };
  for (uint64_t i = 0; i < s.total_ops(); ++i) {
    Op op = gen_op(s, t, i);
    switch (s.workload) {
      case Workload::kIngest:
      case Workload::kGrow:
        apply(op.kind, slot(hash_key(int_key(op.key)), s.initial_shards), op.arg);
        break;
      case Workload::kRequest:
        for (int j = 0; j < 8; ++j) {
          OpKind k = kRequestCalls[j];
          if (k != OpKind::kInc && k != OpKind::kWriteMax) continue;
          uint64_t h = hash_key(names->name(request_key(s, t, i, j)));
          apply(k, slot(h, s.initial_shards), request_write_value(s, t, i));
        }
        break;
      case Workload::kAudit:
        if (op.kind == OpKind::kTransfer) {
          m.net[op.key] -= op.arg;
          m.net[op.key2] += op.arg;
          ++m.transfers;
        }
        break;
    }
  }
}

Model build_model(const Spec& s) {
  std::unique_ptr<NameTable> names;
  if (s.workload == Workload::kRequest) names = std::make_unique<NameTable>(kRequestKeyCount);
  auto n = static_cast<size_t>(s.initial_shards);
  Model empty;
  empty.shard_inc.assign(n, 0);
  empty.shard_max.assign(n, 0);
  empty.net.assign(n, 0);
  std::vector<Model> parts(static_cast<size_t>(s.threads), empty);
  std::vector<std::thread> th;
  for (int t = 0; t < s.threads; ++t) {
    th.emplace_back(model_thread, std::cref(s), names.get(), t,
                    std::ref(parts[static_cast<size_t>(t)]));
  }
  for (std::thread& x : th) x.join();
  Model m = empty;
  for (const Model& p : parts) m.merge(p);
  return m;
}

std::string mismatch(const char* what, int64_t got, int64_t want) {
  return std::string(what) + ": store has " + std::to_string(got) + ", model has " +
         std::to_string(want);
}

std::string check_shards(const Observed& o, const Model& m) {
  if (o.shard_counter.size() != m.shard_inc.size()) {
    return mismatch("shard count", static_cast<int64_t>(o.shard_counter.size()),
                    static_cast<int64_t>(m.shard_inc.size()));
  }
  for (size_t b = 0; b < m.shard_inc.size(); ++b) {
    if (o.shard_counter[b] < 0) {
      if (m.shard_inc[b] != 0 || m.shard_max[b] != 0) return "a written shard was not read back";
      continue;
    }
    if (o.shard_counter[b] != m.shard_inc[b]) {
      return mismatch(("shard " + std::to_string(b) + " counter").c_str(), o.shard_counter[b],
                      m.shard_inc[b]);
    }
    if (o.shard_max[b] != m.shard_max[b]) {
      return mismatch(("shard " + std::to_string(b) + " max").c_str(), o.shard_max[b],
                      m.shard_max[b]);
    }
  }
  return "";
}

std::string check_taken(const Spec& s, const Observed& o) {
  std::vector<int64_t> items;
  items.reserve(o.taken.size());
  for (const auto& [item, take_key] : o.taken) {
    int t = item_thread(item);
    uint64_t i = item_index(item);
    if (t < 0 || t >= s.threads || i >= s.total_ops()) return "a taken set item was never put";
    Op put = gen_op(s, t, i);
    if (put.kind != OpKind::kSetPut || put.arg != item ||
        slot(hash_key(int_key(put.key)), s.initial_shards) !=
            slot(hash_key(int_key(take_key)), s.initial_shards)) {
      return "a taken set item was never put to that set";
    }
    items.push_back(item);
  }
  std::sort(items.begin(), items.end());
  if (std::adjacent_find(items.begin(), items.end()) != items.end()) {
    return "a set item was taken twice";
  }
  return "";
}

}  // namespace

std::string check(const Spec& s, const Observed& o) {
  Model m = build_model(s);
  std::string why;
  if (o.aggregate_regressions != 0) return "counter_sum or global_max went backwards";
  switch (s.workload) {
    case Workload::kIngest:
    case Workload::kRequest:
      if (o.counter_sum != m.incs) return mismatch("counter_sum", o.counter_sum, m.incs);
      if (o.journal_tickets != m.incs + m.writes) {
        return mismatch("journal_tickets", o.journal_tickets, m.incs + m.writes);
      }
      if (o.global_max != m.max_all) return mismatch("global_max", o.global_max, m.max_all);
      if (!(why = check_shards(o, m)).empty()) return why;
      if (!(why = check_taken(s, o)).empty()) return why;
      for (int64_t z : o.tas_zero) {
        if (z > 1) return "two test_and_set calls on one shard returned 0";
      }
      if (o.tas_read_nonzero != 0) return "a TAS read 1 that nobody set";
      break;
    case Workload::kAudit: {
      if (o.torn_snapshots != 0) return "a snapshot did not sum to 0";
      if (o.journal_tickets != m.transfers) {
        return mismatch("journal_tickets", o.journal_tickets, m.transfers);
      }
      if (o.final_snapshot.size() != m.net.size()) return "final snapshot has the wrong size";
      int64_t sum = 0;
      for (size_t b = 0; b < m.net.size(); ++b) {
        sum += o.final_snapshot[b];
        if (o.final_snapshot[b] != m.net[b]) {
          return mismatch(("bucket " + std::to_string(b) + " balance").c_str(),
                          o.final_snapshot[b], m.net[b]);
        }
      }
      if (sum != 0) return "final snapshot does not sum to 0";
      break;
    }
    case Workload::kGrow: {
      if (o.counter_sum != m.incs) return mismatch("counter_sum", o.counter_sum, m.incs);
      if (o.resizes_failed != 0) return "a resize did not return kInstalled";
      auto want = static_cast<int64_t>(s.resize_at.size());
      if (o.resizes_installed != want) return mismatch("resizes", o.resizes_installed, want);
      if (o.shard_count != s.final_shards) {
        return mismatch("final shard count", o.shard_count, s.final_shards);
      }
      if (o.journal_tickets != m.incs + m.writes + want) {
        return mismatch("journal_tickets", o.journal_tickets, m.incs + m.writes + want);
      }
      if (o.global_max != m.max_all) return mismatch("global_max", o.global_max, m.max_all);
      break;
    }
  }
  return "";
}

}  // namespace c2bench
