#include "ledger.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "runtime/counter_sum_digest.h"
#include "runtime/keyed_version_digest.h"
#include "runtime/native_tas_family.h"
#include "runtime/routing_epoch.h"
#include "service/c2store.h"
#include "spans.h"
#include "telemetry/prim_profile.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

// The witness trace arrived after the resize work; a store without it
// measures the trace row as a repeat of the telemetry row.
#if __has_include("telemetry/trace.h")
#include "telemetry/trace.h"
#define C2BENCH_HAS_TRACE 1
#else
#define C2BENCH_HAS_TRACE 0
#endif

namespace c2bench {

namespace rt = c2sl::rt;
namespace svc = c2sl::svc;
namespace tel = c2sl::tel;

namespace {

constexpr uint64_t kOpsPerThread = uint64_t{1} << 17;
/// Key universe of a workload without a Zipf table (uniform keys): enough
/// keys to cover every shard of the widest layout, few enough to bind a ref
/// to each.
constexpr uint32_t kUniformKeys = 4096;
constexpr int kReps = 5;

enum class LOp : int { kInc = 0, kWriteMax = 1, kCounterRead = 2, kMaxRead = 3 };
constexpr int kLOps = 4;
constexpr const char* kLOpNames[kLOps] = {"inc", "write_max", "counter_read", "max_read"};

enum Row : int {
  kShardRow,
  kEpochRow,
  kDigestRow,
  kJournalRow,
  kTelemetryRow,
  kTraceRow,
  kStoreRow,
  kRows
};
constexpr const char* kRowNames[kRows] = {"shard",     "epoch", "digest", "journal",
                                          "telemetry", "trace", "store"};

constexpr bool is_write(LOp o) { return o == LOp::kInc || o == LOp::kWriteMax; }
bool row_applies(LOp o, int row) {
  return is_write(o) || (row != kDigestRow && row != kJournalRow);
}

std::atomic<int64_t> g_sink{0};  // keeps read results observable

/// The workload's key shape, pre-drawn per thread (the ledger is a layer
/// micro-benchmark; the workloads generate on the fly): its key distribution
/// (Zipf, or uniform over kUniformKeys integer keys) routed over its final
/// shard count.
struct KeyStream {
  int shards = 0;
  uint32_t keys = 0;  ///< key universe: indices 0..keys-1
  std::vector<std::vector<uint32_t>> key;
  std::vector<std::vector<int>> shard;
  std::vector<std::vector<int64_t>> value;
};

KeyStream make_stream(const Spec& s) {
  KeyStream ks;
  ks.shards = s.final_shards;
  ks.keys = static_cast<uint32_t>(s.zipf.size() != 0 ? s.zipf.size()
                                                      : std::min<uint64_t>(s.key_count, kUniformKeys));
  for (int t = 0; t < s.threads; ++t) {
    std::vector<uint32_t> k(kOpsPerThread);
    std::vector<int> sh(kOpsPerThread);
    std::vector<int64_t> v(kOpsPerThread);
    for (uint64_t i = 0; i < kOpsPerThread; ++i) {
      uint64_t r = draw(s.base, t, i, 1);
      k[i] = static_cast<uint32_t>(s.zipf.size() != 0 ? s.zipf.sample(r) : below(r, ks.keys));
      sh[i] = static_cast<int>(svc::hash_key(int_key(k[i])) &
                               static_cast<uint64_t>(ks.shards - 1));
      v[i] = 1 + static_cast<int64_t>(below(draw(s.base, t, i, 2),
                                            static_cast<uint64_t>(s.max_value)));
    }
    ks.key.push_back(std::move(k));
    ks.shard.push_back(std::move(sh));
    ks.value.push_back(std::move(v));
  }
  return ks;
}

/// Every layer object a row may use; fresh for each cell. Max registers are
/// sized as store_config() sizes the store's.
struct Layers {
  Layers(int threads, int shards) : epoch(shards), max_digest(threads, 63 / threads) {
    for (int s = 0; s < shards; ++s) {
      ctr.push_back(std::make_unique<rt::NativeFetchIncrement>());
      mx.push_back(std::make_unique<rt::NativeMaxRegister64>(threads, 63 / threads));
    }
  }
  std::vector<std::unique_ptr<rt::NativeFetchIncrement>> ctr;
  std::vector<std::unique_ptr<rt::NativeMaxRegister64>> mx;
  rt::RoutingEpoch epoch;
  rt::CounterSumDigest sum;
  rt::NativeMaxRegister64 max_digest;
  rt::KeyedVersionDigest journal;
  tel::StoreTelemetry tel;
#if C2BENCH_HAS_TRACE
  tel::StoreTrace trace;
#endif
};

struct Lane {
  int lane = 0;
  tel::LaneTelemetry* tel = nullptr;
#if C2BENCH_HAS_TRACE
  tel::LaneTrace* trc = nullptr;
#endif
};

using Kind = rt::KeyedVersionDigest::Kind;

/// Rows shard..journal, in the store's order: revalidate, shard object,
/// digest, journal, settle.
template <LOp O, int R>
inline int64_t core(Layers& L, const Lane& ln, int s, int64_t v, int64_t& witness) {
  if constexpr (R >= kEpochRow) {
    if (rt::RoutingEpoch::published_epoch(L.epoch.stamp_relaxed()) != 0) std::abort();
  }
  int64_t out = 0;
  if constexpr (O == LOp::kInc) {
    out = L.ctr[static_cast<size_t>(s)]->fetch_and_increment();
    if constexpr (R >= kDigestRow) L.sum.add(ln.lane);
    if constexpr (R >= kJournalRow) witness = L.journal.append(Kind::kCounterInc, s, 0, 1);
  } else if constexpr (O == LOp::kWriteMax) {
    L.mx[static_cast<size_t>(s)]->write_max(ln.lane, v);
    if constexpr (R >= kDigestRow) L.max_digest.write_max(ln.lane, v);
    if constexpr (R >= kJournalRow) witness = L.journal.append(Kind::kMaxWrite, s, 0, v);
  } else if constexpr (O == LOp::kCounterRead) {
    out = L.ctr[static_cast<size_t>(s)]->read();
  } else {
    out = L.mx[static_cast<size_t>(s)]->read_max();
  }
  if constexpr (R >= kEpochRow && (O == LOp::kInc || O == LOp::kWriteMax)) {
    if (rt::RoutingEpoch::newest_epoch(L.epoch.stamp()) != 0) std::abort();
  }
  return out;
}

template <LOp O>
constexpr tel::TelOp tel_op() {
  if constexpr (O == LOp::kInc) return tel::TelOp::kCounterInc;
  if constexpr (O == LOp::kWriteMax) return tel::TelOp::kMaxWrite;
  if constexpr (O == LOp::kCounterRead) return tel::TelOp::kCounterRead;
  return tel::TelOp::kMaxRead;
}

/// Rows telemetry and trace wrap the core in the store's two scopes.
template <LOp O, int R>
inline int64_t body(Layers& L, const Lane& ln, int s, int64_t v) {
  int64_t witness = -1;
  if constexpr (R >= kTelemetryRow) {
    tel::OpScope scope(L.tel, ln.tel, tel_op<O>(), s, is_write(O) ? v : 0);
#if C2BENCH_HAS_TRACE
    if constexpr (R >= kTraceRow) {
      tel::TraceScope tr(ln.trc, static_cast<tel::TraceOp>(tel_op<O>()), s,
                         is_write(O) ? v : 0);
      int64_t out = core<O, R>(L, ln, s, v, witness);
      if constexpr (is_write(O)) tr.set_witness(witness);
      tr.set_result(out);
      tr.set_epoch(0);
      return out;
    }
#endif
    return core<O, R>(L, ln, s, v, witness);
  } else {
    return core<O, R>(L, ln, s, v, witness);
  }
}

struct Cell {
  double ns = 0;  ///< mean over threads of ns per op
  double faa = 0, tas = 0, swap = 0;  ///< primitives per op
};

/// Reads need populated objects: thread 0's stream is applied once, untimed.
template <LOp O, int R>
void prefill(Layers& L, svc::C2Store* store, const KeyStream& ks) {
  if constexpr (is_write(O)) return;
  if constexpr (R == kStoreRow) {
    svc::C2Session s = store->open_session();
    for (uint64_t i = 0; i < kOpsPerThread; ++i) {
      uint64_t key = int_key(ks.key[0][i]);
      if constexpr (O == LOp::kCounterRead) {
        s.counter_inc(key);
      } else {
        s.max_write(key, ks.value[0][i]);
      }
    }
  } else {
    Lane ln;
    int64_t w = 0;
    for (uint64_t i = 0; i < kOpsPerThread; ++i) {
      if constexpr (O == LOp::kCounterRead) {
        core<LOp::kInc, kShardRow>(L, ln, ks.shard[0][i], 1, w);
      } else {
        core<LOp::kWriteMax, kShardRow>(L, ln, ks.shard[0][i], ks.value[0][i], w);
      }
    }
  }
}

template <LOp O, int R>
Cell run_cell(const KeyStream& ks, int T) {
  Layers L(T, ks.shards);
  std::unique_ptr<svc::C2Store> store;
  if constexpr (R == kStoreRow) {
    store = std::make_unique<svc::C2Store>(store_config(ks.shards, T));
  }
  prefill<O, R>(L, store.get(), ks);
  Rendezvous start(T);
  std::vector<double> ns(static_cast<size_t>(T));
  std::vector<tel::PrimCounts> prims(static_cast<size_t>(T));
  std::vector<std::thread> th;
  for (int t = 0; t < T; ++t) {
    th.emplace_back([&, t] {
      const auto& keys = ks.key[static_cast<size_t>(t)];
      const auto& shards = ks.shard[static_cast<size_t>(t)];
      const auto& vals = ks.value[static_cast<size_t>(t)];
      int64_t sink = 0;
      if constexpr (R == kStoreRow) {
        svc::C2Session ses = store->open_session();
        constexpr bool counter = O == LOp::kInc || O == LOp::kCounterRead;
        std::vector<std::conditional_t<counter, svc::CounterRef, svc::MaxRef>> refs;
        for (uint32_t k = 0; k < ks.keys; ++k) {
          if constexpr (counter) {
            refs.push_back(ses.counter(int_key(k)));
          } else {
            refs.push_back(ses.max(int_key(k)));
          }
        }
        start.arrive_and_wait();
        tel::PrimCounts p0 = tel::this_thread_prims();
        int64_t t0 = now_ns();
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
          auto& r = refs[keys[i]];
          if constexpr (O == LOp::kInc) {
            sink += r.inc();
          } else if constexpr (O == LOp::kWriteMax) {
            r.write(vals[i]);
          } else {
            sink += r.read();
          }
        }
        int64_t t1 = now_ns();
        prims[static_cast<size_t>(t)] = tel::this_thread_prims() - p0;
        ns[static_cast<size_t>(t)] = static_cast<double>(t1 - t0) / kOpsPerThread;
      } else {
        Lane ln;
        ln.lane = t;
        ln.tel = L.tel.lane(t);
#if C2BENCH_HAS_TRACE
        ln.trc = L.trace.lane(t);
#endif
        start.arrive_and_wait();
        tel::PrimCounts p0 = tel::this_thread_prims();
        int64_t t0 = now_ns();
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
          sink += body<O, R>(L, ln, shards[i], vals[i]);
        }
        int64_t t1 = now_ns();
        prims[static_cast<size_t>(t)] = tel::this_thread_prims() - p0;
        ns[static_cast<size_t>(t)] = static_cast<double>(t1 - t0) / kOpsPerThread;
      }
      g_sink.fetch_add(sink, std::memory_order_relaxed);
    });
  }
  for (std::thread& x : th) x.join();
  Cell c;
  double ops = static_cast<double>(kOpsPerThread) * T;
  for (int t = 0; t < T; ++t) {
    c.ns += ns[static_cast<size_t>(t)] / T;
    c.faa += static_cast<double>(prims[static_cast<size_t>(t)].faa) / ops;
    c.tas += static_cast<double>(prims[static_cast<size_t>(t)].tas) / ops;
    c.swap += static_cast<double>(prims[static_cast<size_t>(t)].swap) / ops;
  }
  return c;
}

using CellFn = Cell (*)(const KeyStream&, int);

template <LOp O>
constexpr std::array<CellFn, kRows> row_fns() {
  return {&run_cell<O, 0>, &run_cell<O, 1>, &run_cell<O, 2>, &run_cell<O, 3>,
          &run_cell<O, 4>, &run_cell<O, 5>, &run_cell<O, 6>};
}

/// ns per CounterSumDigest::read with T-1 threads adding through the
/// shard..digest rows meanwhile.
double aggregate_cell(const KeyStream& ks, int T) {
  Layers L(T, ks.shards);
  std::atomic<int> done{0};
  Rendezvous start(T);
  double ns = 0;
  std::vector<std::thread> th;
  for (int t = 0; t < T; ++t) {
    th.emplace_back([&, t] {
      Lane ln;
      ln.lane = t;
      start.arrive_and_wait();
      if (t > 0) {
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
          body<LOp::kInc, kDigestRow>(L, ln, ks.shard[static_cast<size_t>(t)][i], 1);
        }
        done.fetch_add(1);
        return;
      }
      int64_t t0 = now_ns();
      uint64_t reads = 0;
      int64_t sink = 0;
      while (reads < kOpsPerThread || done.load() < T - 1) {
        sink += L.sum.read();
        ++reads;
      }
      ns = static_cast<double>(now_ns() - t0) / static_cast<double>(reads);
      g_sink.fetch_add(sink, std::memory_order_relaxed);
    });
  }
  for (std::thread& x : th) x.join();
  return ns;
}

/// ns per KeyedVersionDigest::entry replayed in batches of at least 4096
/// while T-1 threads append (deposit waits included); alone when T == 1.
double replay_cell(const KeyStream& ks, int T) {
  Layers L(T, ks.shards);
  if (T == 1) {
    for (uint64_t i = 0; i < kOpsPerThread; ++i) {
      L.journal.append(Kind::kCounterInc, ks.shard[0][i], 0, 1);
    }
  }
  std::atomic<int> done{0};
  Rendezvous start(T);
  double ns = 0;
  std::vector<std::thread> th;
  for (int t = 0; t < T; ++t) {
    th.emplace_back([&, t] {
      start.arrive_and_wait();
      if (t > 0) {
        for (uint64_t i = 0; i < kOpsPerThread; ++i) {
          L.journal.append(Kind::kCounterInc, ks.shard[static_cast<size_t>(t)][i], 0, 1);
        }
        done.fetch_add(1);
        return;
      }
      int64_t cursor = 0;
      int64_t busy = 0;
      int64_t replayed = 0;
      int64_t sink = 0;
      for (;;) {
        bool last = done.load() == T - 1;
        int64_t tail = L.journal.version();
        if (tail - cursor < 4096 && !last) continue;
        int64_t t0 = now_ns();
        for (int64_t c = cursor; c < tail; ++c) sink += L.journal.entry(c).v;
        busy += now_ns() - t0;
        replayed += tail - cursor;
        cursor = tail;
        if (last) break;
      }
      ns = replayed > 0 ? static_cast<double>(busy) / static_cast<double>(replayed) : 0;
      g_sink.fetch_add(sink, std::memory_order_relaxed);
    });
  }
  for (std::thread& x : th) x.join();
  return ns;
}

std::string tsuffix(int ti) { return ti == 0 ? ".t1" : ".tN"; }

}  // namespace

std::vector<Metric> run_ledger(const Spec& spec) {
  const int tcount[2] = {1, spec.threads};
  KeyStream ks = make_stream(spec);
  const std::array<CellFn, kRows> fns[kLOps] = {row_fns<LOp::kInc>(), row_fns<LOp::kWriteMax>(),
                                                row_fns<LOp::kCounterRead>(),
                                                row_fns<LOp::kMaxRead>()};
  // samples[op][row][ti] over kReps repetitions; rows interleave within a
  // repetition so slow drift of the host spreads over every row alike.
  std::vector<Cell> samples[kLOps][kRows][2];
  std::vector<double> agg[2], replay[2];
  for (int rep = 0; rep < kReps; ++rep) {
    for (int ti = 0; ti < 2; ++ti) {
      for (int o = 0; o < kLOps; ++o) {
        for (int r = 0; r < kRows; ++r) {
          if (!row_applies(static_cast<LOp>(o), r)) continue;
          samples[o][r][ti].push_back(fns[o][static_cast<size_t>(r)](ks, tcount[ti]));
        }
      }
      agg[ti].push_back(aggregate_cell(ks, tcount[ti]));
      replay[ti].push_back(replay_cell(ks, tcount[ti]));
    }
  }

  auto med = [](const std::vector<Cell>& v, double Cell::*f) {
    std::vector<double> x;
    for (const Cell& c : v) x.push_back(c.*f);
    return median(x);
  };
  std::vector<Metric> out;
  double ns[kLOps][kRows][2] = {};
  for (int o = 0; o < kLOps; ++o) {
    for (int ti = 0; ti < 2; ++ti) {
      for (int r = 0; r < kRows; ++r) {
        if (!row_applies(static_cast<LOp>(o), r)) continue;
        ns[o][r][ti] = med(samples[o][r][ti], &Cell::ns);
        out.push_back({std::string("ledger.") + kLOpNames[o] + "." + kRowNames[r] + "_ns" +
                           tsuffix(ti),
                       ns[o][r][ti], "ns"});
      }
      double store = ns[o][kStoreRow][ti];
      out.push_back({std::string("ledger.") + kLOpNames[o] + ".residual_share" + tsuffix(ti),
                     (store - ns[o][kTraceRow][ti]) / store, "ratio"});
    }
    for (auto [f, name] : {std::pair{&Cell::faa, "faa"}, std::pair{&Cell::tas, "tas"},
                           std::pair{&Cell::swap, "swap"}}) {
      out.push_back({std::string("prim.") + kLOpNames[o] + "." + name,
                     med(samples[o][kStoreRow][0], f), "count/op"});
    }
  }

  constexpr int N = 1;  // the tN column
  const int inc = static_cast<int>(LOp::kInc);
  const int wmax = static_cast<int>(LOp::kWriteMax);
  const int cread = static_cast<int>(LOp::kCounterRead);
  const int mread = static_cast<int>(LOp::kMaxRead);
  double revalidate = ns[cread][kEpochRow][N] - ns[cread][kShardRow][N];
  out.push_back({"runtime.shard_counter.inc_ns", ns[inc][kShardRow][N], "ns"});
  out.push_back({"runtime.shard_counter.read_ns", ns[cread][kShardRow][N], "ns"});
  out.push_back({"runtime.shard_max.write_ns", ns[wmax][kShardRow][N], "ns"});
  out.push_back({"runtime.shard_max.read_ns", ns[mread][kShardRow][N], "ns"});
  out.push_back({"runtime.shard_counter.tas_per_inc",
                 med(samples[inc][kShardRow][N], &Cell::tas), "count/op"});
  out.push_back({"runtime.epoch.revalidate_ns", revalidate, "ns"});
  out.push_back({"runtime.epoch.settle_ns",
                 ns[inc][kEpochRow][N] - ns[inc][kShardRow][N] - revalidate, "ns"});
  out.push_back(
      {"runtime.sum_digest.add_ns", ns[inc][kDigestRow][N] - ns[inc][kEpochRow][N], "ns"});
  out.push_back(
      {"runtime.max_digest.write_ns", ns[wmax][kDigestRow][N] - ns[wmax][kEpochRow][N], "ns"});
  out.push_back({"runtime.aggregate.read_ns", median(agg[N]), "ns"});
  out.push_back(
      {"runtime.journal.append_ns", ns[inc][kJournalRow][N] - ns[inc][kDigestRow][N], "ns"});
  out.push_back({"runtime.journal.replay_ns_per_entry", median(replay[N]), "ns"});
  out.push_back(
      {"telemetry.opscope_ns", ns[inc][kTelemetryRow][N] - ns[inc][kJournalRow][N], "ns"});
  out.push_back(
      {"telemetry.trace_ns", ns[inc][kTraceRow][N] - ns[inc][kTelemetryRow][N], "ns"});
  return out;
}

double resize_probe_ms(const Spec& spec) {
  constexpr uint64_t kPreload = uint64_t{1} << 16;
  std::vector<double> ms;
  for (int rep = 0; rep < kReps; ++rep) {
    svc::C2Store store(store_config(spec.initial_shards, spec.threads));
    svc::C2Session s = store.open_session();
    for (uint64_t i = 0; i < kPreload; ++i) {
      uint64_t r = draw(spec.base, 0, i, 7);
      auto k = static_cast<uint32_t>(spec.zipf.size() != 0 ? spec.zipf.sample(r)
                                                            : below(r, spec.key_count));
      s.counter_inc(int_key(k));
      if (i % 4 == 0) {
        s.max_write(int_key(k), 1 + static_cast<int64_t>(i % static_cast<uint64_t>(spec.max_value)));
      }
    }
    int64_t t0 = now_ns();
    if (s.resize(spec.initial_shards * 2) != svc::ResizeStatus::kInstalled) {
      throw std::runtime_error("resize probe: resize was not installed");
    }
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

}  // namespace c2bench
