#include "workload/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/assert.h"

namespace c2sl::wl {

namespace {

/// Clamp the store config so this workload cannot violate a construction
/// precondition. Only the 63-bit lane-packing budgets remain — counters, sets
/// and lane recycling grow without bound on the segmented arrays, so there is
/// no per-shard capacity left to size for the worst-case key skew.
svc::C2StoreConfig clamp_store(const WorkloadConfig& cfg) {
  svc::C2StoreConfig s = cfg.store;
  // session_churn keeps the configured lane count AS GIVEN — fewer lanes than
  // worker threads is the scenario (blocking opens bound the concurrent
  // sessions to the lane count, so the packing budgets below still hold).
  // Every other mix opens one session per worker up front and therefore
  // needs a lane per thread.
  if (cfg.mix.name != "session_churn") {
    s.max_threads = std::max(s.max_threads, cfg.threads);
  }
  C2SL_CHECK(s.max_threads <= 31, "engine supports at most 31 lanes");
  s.max_value = std::min<int64_t>(s.max_value, 63 / s.max_threads);
  s.tas_max_resets = std::min<int64_t>(s.tas_max_resets, 63 / s.max_threads - 1);
  return s;
}

/// Harness start barrier (not under test): every worker arrives once, then
/// spins until all `threads` have, so timed regions start together.
void arrive_and_wait(std::atomic<int>& gate, int threads) {
  // c2sl-atomic: faa seq_cst — harness start barrier (not under test)
  gate.fetch_add(1);
  // c2sl-atomic: load seq_cst — barrier spin; must see every arrival
  while (gate.load() < threads) {
  }
}

}  // namespace

WorkloadResult run_workload(const WorkloadConfig& cfg) {
  C2SL_CHECK(cfg.threads >= 1, "need at least one worker thread");
  const bool audit = cfg.mix.name == "transfer_audit";
  const bool churn = cfg.mix.name == "session_churn";
  const bool resizing = cfg.resize_every > 0;
  C2SL_CHECK(!(resizing && churn),
             "resize_every needs a stable resizer session; the session_churn "
             "mix reopens sessions every op");
  C2SL_CHECK(cfg.key_space <= (uint64_t{1} << 20),
             "refs are pre-bound per key; key_space too large");
  WorkloadResult result;
  result.cfg = cfg;
  result.cfg.store = clamp_store(cfg);

  svc::C2Store store(result.cfg.store);
  std::unique_ptr<KeyDist> dist = make_dist(cfg.dist, cfg.key_space, cfg.zipf_theta);

  // Snapshot/transfer key set: one representative integer key per shard.
  // Keys collapse to shards, so these cover the whole aggregate state — and
  // auditing exactly one key per shard is what makes the transfer
  // conservation sum exact (two keys on one shard would double-count it).
  std::vector<uint64_t> snap_keys;
  std::vector<svc::SnapKey> snap_slots;
  {
    std::vector<bool> covered(static_cast<size_t>(store.shard_count()), false);
    int remaining = store.shard_count();
    for (uint64_t k = 0; remaining > 0; ++k) {
      int s = store.shard_of(k);
      if (!covered[static_cast<size_t>(s)]) {
        covered[static_cast<size_t>(s)] = true;
        snap_keys.push_back(k);
        --remaining;
      }
    }
    snap_slots.reserve(snap_keys.size());
    for (uint64_t k : snap_keys) snap_slots.push_back(svc::SnapKey::counter(k));
  }

  const int threads = cfg.threads;
  const uint64_t ops = cfg.ops_per_thread;
  std::vector<std::vector<int64_t>> lat(static_cast<size_t>(threads));
  std::vector<std::vector<uint64_t>> counts(
      static_cast<size_t>(threads), std::vector<uint64_t>(kOpKindCount, 0));
  std::atomic<int> start_gate{0};
  int64_t resizes_done = 0;  // written by worker 0 only; read after join
  // Workers timestamp their own timed region (after the barrier, after setup
  // like session open and ref pre-binding): wall time is max(end)-min(start),
  // so neither setup cost nor main-thread scheduling skews throughput.
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> t_start(static_cast<size_t>(threads));
  std::vector<Clock::time_point> t_end(static_cast<size_t>(threads));

  // `wid` is the worker index (deterministic seeds, sole-resetter election);
  // the session's lane is an internal detail the registry hands out.
  auto worker = [&](int wid) {
    Rng rng(cfg.seed * 1000003 + static_cast<uint64_t>(wid));
    auto& my_lat = lat[static_cast<size_t>(wid)];
    auto& my_counts = counts[static_cast<size_t>(wid)];
    my_lat.reserve(ops);
    if (churn) {
      // Session-churn mode: every op is a full open -> use -> close cycle
      // against a store whose lane count was NOT raised to the thread count,
      // so opens contend for real. The recorded latency is the OPEN latency
      // alone; the one counter op inside the session keeps the cycle honest
      // (a lane is actually used) without drowning the metric.
      arrive_and_wait(start_gate, threads);
      t_start[static_cast<size_t>(wid)] = Clock::now();
      for (uint64_t i = 0; i < ops; ++i) {
        uint64_t key = dist->next(rng, i);
        auto t0 = Clock::now();
        svc::C2Session session = store.open_session();  // parks on the handoff queue
        auto t1 = Clock::now();
        my_lat.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
        session.counter_inc(key);
        ++my_counts[static_cast<size_t>(OpKind::kSessionChurn)];
        // RAII close: the lane is handed to the oldest blocked opener.
      }
      t_end[static_cast<size_t>(wid)] = Clock::now();
      return;
    }
    // Resets of the per-shard multi-shot TAS have a finite generation budget;
    // worker 0 is the sole resetter so the budget gate is race-free. Under a
    // resize schedule tas.shard() can report any slot up to the growth cap,
    // so the bookkeeping is sized for the cap up front.
    std::vector<int64_t> resets_done(
        static_cast<size_t>(resizing ? kResizeShardCap : store.shard_count()),
        0);

    svc::C2Session session = store.open_session();
    // Hash-route every key ONCE, before the timed loop; the loop then runs
    // entirely on cached slot pointers.
    std::vector<svc::MaxRef> max_refs;
    std::vector<svc::CounterRef> ctr_refs;
    std::vector<svc::TasRef> tas_refs;
    std::vector<svc::SetRef> set_refs;
    max_refs.reserve(cfg.key_space);
    ctr_refs.reserve(cfg.key_space);
    tas_refs.reserve(cfg.key_space);
    set_refs.reserve(cfg.key_space);
    for (uint64_t k = 0; k < cfg.key_space; ++k) {
      max_refs.push_back(session.max(k));
      ctr_refs.push_back(session.counter(k));
      tas_refs.push_back(session.tas(k));
      set_refs.push_back(session.set(k));
    }

    // Each worker holds one SnapshotRef over the per-shard representatives:
    // its replay cursor advances incrementally across the worker's snapshots
    // instead of re-replaying the whole journal every time.
    svc::SnapshotRef snap_ref = session.snapshot_ref(snap_slots);

    arrive_and_wait(start_gate, threads);
    t_start[static_cast<size_t>(wid)] = Clock::now();

    for (uint64_t i = 0; i < ops; ++i) {
      OpKind kind = cfg.mix.pick(rng);
      uint64_t key = dist->next(rng, i);
      auto t0 = std::chrono::steady_clock::now();
      switch (kind) {
        case OpKind::kMaxWrite:
          max_refs[key].write(rng.next_in(0, result.cfg.store.max_value));
          break;
        case OpKind::kMaxRead:
          max_refs[key].read();
          break;
        case OpKind::kCounterInc:
          ctr_refs[key].inc();
          break;
        case OpKind::kCounterRead:
          ctr_refs[key].read();
          break;
        case OpKind::kSetPut:
          set_refs[key].put(static_cast<int64_t>(wid) * (1 << 30) +
                            static_cast<int64_t>(i));
          break;
        case OpKind::kSetTake:
          set_refs[key].take();
          break;
        case OpKind::kTas: {
          // Worker 0 occasionally recycles the TAS within the shard budget.
          // Operate on the vector element itself so its slot pointer warms up
          // (a copy would re-resolve every op).
          svc::TasRef& tas = tas_refs[key];
          int s = tas.shard();
          if (wid == 0 && tas.read() == 1 &&
              resets_done[static_cast<size_t>(s)] <
                  result.cfg.store.tas_max_resets) {
            if (tas.reset() == svc::ResetResult::kOk) {
              ++resets_done[static_cast<size_t>(s)];
            }
          }
          tas.test_and_set();
          break;
        }
        case OpKind::kTasRead:
          tas_refs[key].read();
          break;
        // Aggregates run through the session so the telemetry layer sees
        // them (store-level calls are uninstrumented by design).
        case OpKind::kGlobalMax:
          session.global_max();
          break;
        case OpKind::kCounterSum:
          session.counter_sum();
          break;
        case OpKind::kSessionChurn:
          C2SL_CHECK(false, "kSessionChurn only runs in the session_churn mix");
          break;
        case OpKind::kSnapshot: {
          std::vector<int64_t> view = snap_ref.read();
          if (audit) {
            // The live conservation audit: transfers are single journal
            // entries, so EVERY cut must balance. This is the check the
            // sanitizer CI jobs run natively under TSAN/ASAN.
            int64_t sum = 0;
            for (int64_t v : view) sum += v;
            C2SL_CHECK(sum == 0,
                       "transfer_audit: snapshot observed a torn transfer");
          }
          break;
        }
        case OpKind::kTransfer: {
          C2SL_CHECK(snap_keys.size() >= 2,
                     "transfers need at least two shards");
          size_t from = static_cast<size_t>(rng.next_below(snap_keys.size()));
          size_t to = static_cast<size_t>(rng.next_below(snap_keys.size() - 1));
          if (to >= from) ++to;  // distinct pair, uniform
          session.transfer(snap_keys[from], snap_keys[to], rng.next_in(1, 3));
          break;
        }
      }
      auto t1 = std::chrono::steady_clock::now();
      my_lat.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      ++my_counts[static_cast<size_t>(kind)];
      // Control-plane: worker 0 doubles the shard count on its own op
      // schedule. Deliberately OUTSIDE the latency record — a resize is not a
      // data op; its cost shows up in the other workers' op latencies and in
      // wall-clock throughput.
      if (resizing && wid == 0 && (i + 1) % cfg.resize_every == 0) {
        int cur = store.shard_count();
        if (cur < kResizeShardCap &&
            session.resize(cur * 2) == svc::ResizeStatus::kInstalled) {
          ++resizes_done;
        }
      }
    }
    t_end[static_cast<size_t>(wid)] = Clock::now();
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  result.seconds = std::chrono::duration<double>(
                       *std::max_element(t_end.begin(), t_end.end()) -
                       *std::min_element(t_start.begin(), t_start.end()))
                       .count();
  std::vector<int64_t> all;
  for (auto& v : lat) {
    result.total_ops += v.size();
    all.insert(all.end(), v.begin(), v.end());
  }
  if (churn) {
    // Per-waiter wait-time spread: each worker's open latencies are its own
    // waiter history (the per-thread buffers ARE per-waiter — merging them
    // first would destroy exactly the fairness signal). summarize_latencies
    // sorts each buffer in place; `all` already holds copies.
    WaitSpread& ws = result.wait_spread;
    for (auto& v : lat) {
      if (v.empty()) continue;
      LatencyStats s = summarize_latencies(v);
      if (ws.waiters == 0) {
        ws.p50_min_ns = ws.p50_max_ns = s.p50_ns;
        ws.p99_min_ns = ws.p99_max_ns = s.p99_ns;
        ws.max_min_ns = ws.max_max_ns = s.max_ns;
      } else {
        ws.p50_min_ns = std::min(ws.p50_min_ns, s.p50_ns);
        ws.p50_max_ns = std::max(ws.p50_max_ns, s.p50_ns);
        ws.p99_min_ns = std::min(ws.p99_min_ns, s.p99_ns);
        ws.p99_max_ns = std::max(ws.p99_max_ns, s.p99_ns);
        ws.max_min_ns = std::min(ws.max_min_ns, s.max_ns);
        ws.max_max_ns = std::max(ws.max_max_ns, s.max_ns);
      }
      ++ws.waiters;
    }
    ws.p50_spread_ns = ws.p50_max_ns - ws.p50_min_ns;
    ws.p99_spread_ns = ws.p99_max_ns - ws.p99_min_ns;
    ws.max_spread_ns = ws.max_max_ns - ws.max_min_ns;
  }
  result.throughput_ops_s =
      result.seconds > 0 ? static_cast<double>(result.total_ops) / result.seconds : 0;
  result.latency = summarize_latencies(all);
  for (const auto& per_thread : counts) {
    for (int k = 0; k < kOpKindCount; ++k) result.per_kind[k] += per_thread[static_cast<size_t>(k)];
  }
  result.initialized_shards = store.initialized_shards();
  result.resizes_done = resizes_done;
  result.final_shards = store.shard_count();
  result.final_global_max = store.global_max();
  result.final_counter_sum = store.counter_sum();
  result.journal_tickets = store.journal_tickets();
  if (resizing) {
    // Conservation across every resize cut: each counter inc lands in the
    // epoch-independent sum digest exactly once (the settle loop re-applies
    // only to SHARD slots, never to the digest), and transfers net to zero,
    // so the digest sum after quiescence must equal the inc count no matter
    // how many migrations ran mid-stream. A lost or double-counted inc
    // anywhere in the hand-off breaks this equality loudly.
    C2SL_CHECK(result.final_counter_sum ==
                   static_cast<int64_t>(
                       result.per_kind[static_cast<size_t>(OpKind::kCounterInc)]),
               "resize conservation: counter_sum != total incs across resizes");
  }
  if (audit) {
    // Quiescent audit from a fresh replay cursor: a full journal replay must
    // conserve, independently of the incremental cursors the workers held.
    svc::C2Session s = store.open_session();
    int64_t sum = 0;
    for (int64_t v : s.snapshot_counters(snap_keys)) sum += v;
    C2SL_CHECK(sum == 0, "transfer_audit: quiescent full replay did not conserve");
  }
  result.metrics = store.metrics_snapshot();
  // Quiescent drain: every session has closed, so the dump is the complete
  // witnessed history of the run (what tools/trace_audit.py replays).
  if (cfg.collect_trace) result.trace = store.trace_dump();
  return result;
}

void profile_primitives(tel::MetricsSnapshot& snap) {
  if (!tel::kEnabled) return;
  // A private single-session store: the per-thread primitive counters then
  // attribute every delta to exactly the profiled op. Small key space, one
  // lane — the profile is a COST MODEL (primitives per op), not a throughput
  // measurement, so contention is deliberately absent.
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 4;
  cfg.max_threads = 1;
  cfg.max_value = 63;
  cfg.tas_max_resets = 0;
  svc::C2Store store(cfg);
  constexpr int kOps = 256;

  auto profile = [&](tel::TelOp op, auto&& body) {
    tel::PrimCounts before = tel::this_thread_prims();
    for (int i = 0; i < kOps; ++i) body(i);
    tel::PrimCounts delta = tel::this_thread_prims() - before;
    tel::PrimProfile& p = snap.prim_profile[static_cast<int>(op)];
    p.faa = static_cast<double>(delta.faa) / kOps;
    p.tas = static_cast<double>(delta.tas) / kOps;
    p.swap = static_cast<double>(delta.swap) / kOps;
    p.ops = kOps;
  };

  {
    svc::C2Session s = store.open_session();
    svc::MaxRef mx = s.max(uint64_t{1});
    svc::CounterRef ctr = s.counter(uint64_t{2});
    svc::TasRef tas = s.tas(uint64_t{3});
    svc::SetRef set = s.set(uint64_t{4});
    mx.write(1);  // warm the shard slots so materialisation cost stays out
    ctr.inc();
    tas.read();
    set.put(0);

    profile(tel::TelOp::kMaxWrite, [&](int i) { mx.write(i % 63); });
    profile(tel::TelOp::kMaxRead, [&](int) { mx.read(); });
    profile(tel::TelOp::kCounterInc, [&](int) { ctr.inc(); });
    profile(tel::TelOp::kCounterRead, [&](int) { ctr.read(); });
    profile(tel::TelOp::kTasSet, [&](int) { tas.test_and_set(); });
    profile(tel::TelOp::kTasRead, [&](int) { tas.read(); });
    // Balanced put/take so the set neither grows without bound (take sweeps
    // would lengthen) nor runs dry (empty takes stabilise differently).
    profile(tel::TelOp::kSetPut, [&](int i) { set.put(i); });
    profile(tel::TelOp::kSetTake, [&](int) { set.take(); });
    profile(tel::TelOp::kGlobalMax, [&](int) { s.global_max(); });
    profile(tel::TelOp::kCounterSum, [&](int) { s.counter_sum(); });
    // Snapshot steady state: the first read drains the journal entries the
    // profiles above appended; after that each read is one tail FAA plus a
    // replay of whatever landed since — nothing, here, so the profile is the
    // irreducible per-snapshot cost (the fan-out to keys is free).
    svc::SnapshotRef snap = s.snapshot_ref(
        {svc::SnapKey::counter(uint64_t{2}), svc::SnapKey::max(uint64_t{1})});
    snap.read();
    profile(tel::TelOp::kSnapshot, [&](int) { snap.read(); });
    // Alternating signs keep the profiled balances bounded.
    profile(tel::TelOp::kTransfer, [&](int i) {
      s.transfer(uint64_t{2}, uint64_t{4}, (i % 2) ? 1 : -1);
    });
  }
  profile(tel::TelOp::kSessionOpen, [&](int) {
    svc::C2Session s = store.open_session();  // full open/close cycle
  });
  snap.has_prim_profile = true;
}

void append_result_entry(JsonWriter& w, const std::string& bench,
                         const WorkloadResult& r) {
  w.begin_object();
  w.field("bench", bench);
  w.key("config").begin_object();
  w.field("threads", r.cfg.threads);
  w.field("initial_shards", r.cfg.store.initial_shards);
  w.field("ops_per_thread", r.cfg.ops_per_thread);
  w.field("key_space", r.cfg.key_space);
  w.field("dist", r.cfg.dist);
  w.field("mix", r.cfg.mix.name);
  w.field("resize_every", r.cfg.resize_every);
  w.field("lanes", r.cfg.store.max_threads);
  w.field("seed", r.cfg.seed);
  w.end_object();
  w.key("metrics").begin_object();
  w.field("ops", r.total_ops);
  w.field("seconds", r.seconds);
  w.field("throughput_ops_per_s", r.throughput_ops_s);
  w.key("latency_ns").begin_object();
  w.field("mean", r.latency.mean_ns);
  w.field("min", r.latency.min_ns);
  w.field("p50", r.latency.p50_ns);
  w.field("p90", r.latency.p90_ns);
  w.field("p99", r.latency.p99_ns);
  w.field("p999", r.latency.p999_ns);
  w.field("max", r.latency.max_ns);
  w.end_object();
  w.key("op_counts").begin_object();
  for (int k = 0; k < kOpKindCount; ++k) {
    if (r.per_kind[k] > 0) w.field(to_string(static_cast<OpKind>(k)), r.per_kind[k]);
  }
  w.end_object();
  if (r.wait_spread.waiters > 0) {
    // session_churn only: per-waiter open-latency spread (fairness metric).
    const WaitSpread& ws = r.wait_spread;
    w.key("wait_spread_ns").begin_object();
    w.field("waiters", ws.waiters);
    w.field("p50_min", ws.p50_min_ns);
    w.field("p50_max", ws.p50_max_ns);
    w.field("p50_spread", ws.p50_spread_ns);
    w.field("p99_min", ws.p99_min_ns);
    w.field("p99_max", ws.p99_max_ns);
    w.field("p99_spread", ws.p99_spread_ns);
    w.field("max_min", ws.max_min_ns);
    w.field("max_max", ws.max_max_ns);
    w.field("max_spread", ws.max_spread_ns);
    w.end_object();
  }
  w.key("final_state").begin_object();
  w.field("initialized_shards", r.initialized_shards);
  w.field("resizes_done", r.resizes_done);
  w.field("final_shards", r.final_shards);
  w.field("global_max", r.final_global_max);
  w.field("counter_sum", r.final_counter_sum);
  w.field("journal_tickets", r.journal_tickets);
  w.end_object();
  w.end_object();  // metrics
  w.end_object();  // entry
}

std::string result_to_json(const std::string& suite, const std::string& bench,
                           const WorkloadResult& r) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "c2sl-bench-v1");
  w.field("suite", suite);
  w.key("results").begin_array();
  append_result_entry(w, bench, r);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace c2sl::wl
