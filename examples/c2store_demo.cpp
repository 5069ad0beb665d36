// C2Store quickstart: a sharded object service built ONLY from
// consensus-number-2 primitives (exchange + fetch&add — no CAS anywhere, not
// even in the service plumbing), serving every session op from real threads.
//
//   $ ./example_c2store_demo [threads] [ops_per_thread]
//                             [--trace-out FILE] [--metrics-out FILE]
//
// Each worker thread opens one session and runs ops_per_thread ops, each
// drawn uniformly from every kind the session API offers: max write/read,
// counter inc/read, TAS set/read, set put/take, transfer, snapshot,
// counter_sum and global_max. Op choices and keys come from a per-thread
// seeded stream, so the op counts of a configuration are the same every run.
// After the workers join, the demo checks conservation: counter_sum and a
// full journal replay both equal the number of incs (transfers net to zero).
//
// --trace-out FILE writes the run's linearization-witness trace as
// c2sl-trace-v1 JSON (audit it with tools/trace_audit.py).
// --metrics-out FILE writes the store's c2sl-metrics-v1 JSON snapshot to FILE
// (a C2SL_CAPTURE=0 build writes telemetry_enabled=false).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/c2store.h"
#include "telemetry/export.h"
#include "telemetry/trace_export.h"
#include "util/assert.h"
#include "util/rng.h"

using namespace c2sl;

namespace {

enum Op {
  kMaxWrite,
  kMaxRead,
  kCounterInc,
  kCounterRead,
  kTasSet,
  kTasRead,
  kSetPut,
  kSetTake,
  kTransfer,
  kSnapshot,
  kCounterSum,
  kGlobalMax,
  kOpCount
};
const char* const kOpNames[kOpCount] = {
    "max_write", "max_read", "counter_inc", "counter_read",
    "tas_set",   "tas_read", "set_put",     "set_take",
    "transfer",  "snapshot", "counter_sum", "global_max"};

constexpr uint64_t kKeySpace = 4096;
constexpr uint64_t kSeed = 1;

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) try {
  std::string trace_out;
  std::string metrics_out;
  int positional[2] = {4, 5000};
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (pos < 2) {
      positional[pos++] = std::atoi(argv[i]);
    }
  }
  const int threads = positional[0];
  const uint64_t ops = static_cast<uint64_t>(positional[1]);
  // One lane per worker; the store packs up to 64 lanes into its 64-bit
  // words (C2StoreConfig), and the demo keeps to a 31-thread run.
  C2SL_CHECK(threads >= 1 && threads <= 31, "threads must be in 1..31");

  // Direct API taste: open a session (RAII lane), bind typed key-bound refs
  // once, then operate through the cached handles. String keys route through
  // the same FNV+mix hash path — but only at bind time.
  {
    svc::C2Store store(svc::C2StoreConfig{});
    svc::C2Session session = store.open_session();
    svc::MaxRef score = session.max("user:1042/score");
    svc::CounterRef hits = session.counter("page:/index/hits");
    svc::SetRef emails = session.set("queue:emails");
    score.write(5);
    hits.inc();
    emails.put(7001);
    std::printf("direct: score=%lld hits=%lld email=%lld (lane=%d)\n",
                static_cast<long long>(score.read()),
                static_cast<long long>(hits.read()),
                static_cast<long long>(emails.take()), session.lane());
  }

  svc::C2StoreConfig cfg;
  cfg.initial_shards = 16;
  cfg.max_threads = threads;
  cfg.max_value = std::min(cfg.max_value, rt::lane_max(threads));
  cfg.tas_max_resets = std::min(cfg.tas_max_resets, rt::lane_max(threads) - 1);
  svc::C2Store store(cfg);

  // Transfer and snapshot keys: one representative per shard, so the
  // snapshot covers every ledger bucket exactly once and its sum is the
  // store-wide balance.
  std::vector<uint64_t> rep_keys;
  {
    std::vector<bool> covered(static_cast<size_t>(store.shard_count()), false);
    for (uint64_t k = 0; rep_keys.size() < covered.size(); ++k) {
      auto s = static_cast<size_t>(store.shard_of(k));
      if (!covered[s]) {
        covered[s] = true;
        rep_keys.push_back(k);
      }
    }
  }
  std::vector<svc::SnapKey> rep_slots;
  for (uint64_t k : rep_keys) rep_slots.push_back(svc::SnapKey::counter(k));

  std::vector<std::vector<uint64_t>> counts(
      static_cast<size_t>(threads), std::vector<uint64_t>(kOpCount, 0));
  auto worker = [&](int wid) {
    Rng rng(kSeed * 1000003 + static_cast<uint64_t>(wid));
    svc::C2Session s = store.open_session();
    svc::SnapshotRef snap = s.snapshot_ref(rep_slots);
    std::vector<uint64_t>& mine = counts[static_cast<size_t>(wid)];
    for (uint64_t i = 0; i < ops; ++i) {
      auto op = static_cast<Op>(rng.next_below(kOpCount));
      uint64_t key = rng.next_below(kKeySpace);
      switch (op) {
        case kMaxWrite:
          s.max_write(key, rng.next_in(0, cfg.max_value));
          break;
        case kMaxRead:
          s.max_read(key);
          break;
        case kCounterInc:
          s.counter_inc(key);
          break;
        case kCounterRead:
          s.counter_read(key);
          break;
        case kTasSet:
          s.test_and_set(key);
          break;
        case kTasRead:
          s.tas_read(key);
          break;
        case kSetPut:
          s.set_put(key, static_cast<int64_t>(wid) * (1 << 30) +
                             static_cast<int64_t>(i));
          break;
        case kSetTake:
          s.set_take(key);
          break;
        case kTransfer: {
          size_t from = static_cast<size_t>(rng.next_below(rep_keys.size()));
          size_t to = static_cast<size_t>(rng.next_below(rep_keys.size() - 1));
          if (to >= from) ++to;  // a distinct pair, uniform
          // One in eight amounts is too large for a one-cell journal entry,
          // so the audited trace also covers two-ticket (wide) transfers.
          int64_t amount = rng.next_below(8) == 0 ? rng.next_in(4096, 1 << 20)
                                                  : rng.next_in(1, 3);
          s.transfer(rep_keys[from], rep_keys[to], amount);
          break;
        }
        case kSnapshot:
          snap.read();
          break;
        case kCounterSum:
          s.counter_sum();
          break;
        case kGlobalMax:
          s.global_max();
          break;
        case kOpCount:
          break;
      }
      ++mine[op];
    }
  };

  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& th : pool) th.join();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  uint64_t per_kind[kOpCount] = {};
  uint64_t total = 0;
  for (const auto& mine : counts) {
    for (int k = 0; k < kOpCount; ++k) {
      per_kind[k] += mine[static_cast<size_t>(k)];
      total += mine[static_cast<size_t>(k)];
    }
  }
  const auto incs = static_cast<int64_t>(per_kind[kCounterInc]);
  int64_t sum = store.counter_sum();
  int64_t replayed = 0;
  {
    svc::C2Session audit = store.open_session();
    for (int64_t v : audit.snapshot_counters(rep_keys)) replayed += v;
  }
  C2SL_ASSERT_MSG(sum == incs, "counter_sum != the number of incs");
  C2SL_ASSERT_MSG(replayed == incs, "a full journal replay did not conserve");

  std::printf("run: %llu ops on %d threads x %d shards in %.3fs (%.0f ops/s)\n",
              static_cast<unsigned long long>(total), threads,
              cfg.initial_shards, seconds, seconds > 0 ? total / seconds : 0.0);
  std::printf("ops:");
  for (int k = 0; k < kOpCount; ++k) {
    std::printf(" %s=%llu", kOpNames[k],
                static_cast<unsigned long long>(per_kind[k]));
  }
  std::printf("\nfinal: shards_touched=%d global_max=%lld counter_sum=%lld "
              "journal_tickets=%lld (conserved)\n",
              store.initialized_shards(),
              static_cast<long long>(store.global_max()),
              static_cast<long long>(sum),
              static_cast<long long>(store.journal_tickets()));

  if (!metrics_out.empty()) {
    C2SL_CHECK(write_file(metrics_out,
                          tel::to_json(store.metrics_snapshot(), "c2store_demo")),
               "cannot write " + metrics_out);
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    // Every session has closed, so the dump is the run's whole history.
    C2SL_CHECK(write_file(trace_out, tel::trace_to_json(store.trace_dump(),
                                                        "c2store_demo")),
               "cannot write " + trace_out);
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
