// Multi-threaded stress tests (TSAN targets) for the C2Store service layer
// and its native-runtime foundations: lazy-init races, session/ref routing
// under contention, NativeSet put/take, and NativeFetchIncrement. All seeds
// are deterministic; volumes are sized to stay fast under ThreadSanitizer.
//
// Worker threads address the store through per-thread C2Sessions (opened up
// front, one lane each) and typed key-bound refs, mirroring how a real client
// would hold handles across ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <vector>

#include "runtime/native_tas_family.h"
#include "runtime/stress.h"
#include "service/c2store.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace c2sl {
namespace {

svc::C2StoreConfig stress_config(int threads) {
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 8;
  cfg.max_threads = threads;
  // The widest lanes the store packs, so raising writes carry inside a lane.
  cfg.max_value = std::min(rt::lane_max(threads), rt::JournalCodec::kMaxValue);
  cfg.tas_max_resets = rt::lane_max(threads) - 1;
  return cfg;
}

/// One session per worker thread, opened before the threads start.
std::vector<svc::C2Session> open_sessions(svc::C2Store& store, int threads) {
  std::vector<svc::C2Session> out;
  out.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) out.push_back(store.open_session());
  return out;
}

/// Sum of the per-shard counters at quiescence: one counter_read per shard,
/// through the first key that routes to it (keys on one shard share its
/// counter). Absent resizes this must equal the counter_sum() digest.
int64_t sum_of_shard_counters(svc::C2Store& store, svc::C2Session& s) {
  std::vector<bool> seen(static_cast<size_t>(store.shard_count()), false);
  int64_t sum = 0;
  int left = store.shard_count();
  for (uint64_t k = 0; left > 0; ++k) {
    auto shard = static_cast<size_t>(store.shard_of(k));
    if (seen[shard]) continue;
    seen[shard] = true;
    --left;
    sum += s.counter_read(k);
  }
  return sum;
}

/// counter_inc ops counted by telemetry: a scan of one single-writer cell
/// per lane, bumped before the inc's digest FAA (racy while lanes are
/// adding, exact at quiescence). Meaningful only under tel::kEnabled.
int64_t counter_incs_counted(const svc::C2Store& store) {
  return static_cast<int64_t>(store.metrics_snapshot()
                                  .op_counts[static_cast<int>(tel::TelOp::kCounterInc)]);
}

// All threads race to initialise the SAME fresh shard on their very first
// operation; the readable-TAS guard must produce exactly one object (checked
// indirectly: fetch&increment results are globally distinct and dense).
TEST(C2StoreStress, LazyInitRaceOnOneShard) {
  const int threads = 4;
  const int per_thread = 50;
  for (int round = 0; round < 20; ++round) {
    svc::C2Store store(stress_config(threads));
    const uint64_t hot_key = static_cast<uint64_t>(round);
    auto sessions = open_sessions(store, threads);
    // One bound ref per thread: all refs race to materialise the same shard.
    std::vector<svc::CounterRef> ctr;
    for (int t = 0; t < threads; ++t) ctr.push_back(sessions[static_cast<size_t>(t)].counter(hot_key));
    std::vector<std::vector<int64_t>> got(static_cast<size_t>(threads));
    rt::run_stress(threads, per_thread, [&](int t, int) {
      rt::TimedOp op;
      got[static_cast<size_t>(t)].push_back(ctr[static_cast<size_t>(t)].inc());
      return op;
    });
    std::set<int64_t> all;
    for (const auto& v : got) {
      for (int64_t x : v) {
        EXPECT_TRUE(all.insert(x).second) << "duplicate counter value " << x;
      }
    }
    ASSERT_EQ(all.size(), static_cast<size_t>(threads * per_thread));
    EXPECT_EQ(*all.rbegin(), threads * per_thread - 1) << "values must be dense";
    EXPECT_EQ(sessions[0].counter_read(hot_key), threads * per_thread);
  }
}

// Threads hammer distinct fresh keys concurrently — many shards initialise in
// parallel while others are already serving.
TEST(C2StoreStress, ConcurrentInitAcrossShards) {
  const int threads = 4;
  const int per_thread = 100;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    auto& session = sessions[static_cast<size_t>(t)];
    uint64_t key = static_cast<uint64_t>(t * per_thread + j);
    session.counter_inc(key);
    session.max_write(key, (t + j) * 977 % (store.config().max_value + 1));
    return op;
  });
  EXPECT_EQ(store.counter_sum(), threads * per_thread);
  EXPECT_EQ(store.initialized_shards(), store.shard_count());
}

TEST(C2StoreStress, CounterSumConservation) {
  const int threads = 4;
  const int per_thread = 250;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  std::vector<Rng> rngs;
  for (int t = 0; t < threads; ++t) rngs.emplace_back(900 + t);
  rt::run_stress(threads, per_thread, [&](int t, int) {
    rt::TimedOp op;
    sessions[static_cast<size_t>(t)].counter_inc(rngs[static_cast<size_t>(t)].next_below(64));
    return op;
  });
  EXPECT_EQ(store.counter_sum(), threads * per_thread);
}

// counter_sum() digest reads racing counter_add traffic: per observer thread
// the sum must be monotone (the digest word only grows) and never exceed the
// number of incs started, and a telemetry scan of the per-lane counter_inc
// cells taken after a digest read never trails it (each relaxed cell bump is
// released by its inc's digest FAA); at quiescence the digest, the per-shard
// counters and the telemetry count must all agree. (TSAN watches the digest
// word and the per-lane cells.)
TEST(C2StoreStress, CounterSumDigestMonotoneUnderConcurrentAdds) {
  const int threads = 4;
  const int per_thread = 300;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  std::atomic<bool> ok{true};
  std::vector<Rng> rngs;
  for (int t = 0; t < threads; ++t) rngs.emplace_back(4200 + t);
  std::vector<int64_t> last_seen(static_cast<size_t>(threads), 0);
  const int64_t inc_threads = threads - 1;  // thread 0 only reads
  rt::run_stress(threads, per_thread, [&](int t, int) {
    rt::TimedOp op;
    if (t == 0) {
      int64_t sum = store.counter_sum();
      if (sum < last_seen[0] || sum > inc_threads * per_thread) ok.store(false);
      if (tel::kEnabled && counter_incs_counted(store) < sum) ok.store(false);
      last_seen[0] = sum;
    } else {
      sessions[static_cast<size_t>(t)].counter_inc(
          rngs[static_cast<size_t>(t)].next_below(64));
    }
    return op;
  });
  EXPECT_TRUE(ok.load())
      << "digest read non-monotone, out of bounds, or ahead of its lanes";
  EXPECT_EQ(store.counter_sum(), inc_threads * per_thread);
  EXPECT_EQ(sum_of_shard_counters(store, sessions[0]), inc_threads * per_thread);
  if (tel::kEnabled) {
    EXPECT_EQ(counter_incs_counted(store), inc_threads * per_thread)
        << "per-lane counter_inc cells must add up to the digest total";
  }
}

// global_max read concurrently with writes must never exceed the largest value
// written so far and must be monotone per observer thread.
TEST(C2StoreStress, GlobalMaxBoundedAndMonotone) {
  const int threads = 4;
  const int per_thread = 200;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  const int64_t bound = store.config().max_value;
  std::atomic<bool> ok{true};
  std::vector<Rng> rngs;
  for (int t = 0; t < threads; ++t) rngs.emplace_back(1700 + t);
  std::vector<int64_t> last_seen(static_cast<size_t>(threads), 0);
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    auto& rng = rngs[static_cast<size_t>(t)];
    if (j % 3 == 0) {
      sessions[static_cast<size_t>(t)].max_write(rng.next_below(64), rng.next_in(0, bound));
    } else {
      int64_t m = store.global_max();
      if (m < last_seen[static_cast<size_t>(t)] || m > bound) ok.store(false);
      last_seen[static_cast<size_t>(t)] = m;
    }
    return op;
  });
  EXPECT_TRUE(ok.load());
}

// Set operations through the routing layer: items are never taken twice, and
// after a full drain everything put was either taken or still drainable.
TEST(C2StoreStress, SetConservationThroughRouting) {
  const int threads = 4;
  const int per_thread = 150;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  std::vector<Rng> rngs;
  for (int t = 0; t < threads; ++t) rngs.emplace_back(7100 + t);
  std::vector<std::vector<int64_t>> put(static_cast<size_t>(threads));
  std::vector<std::vector<int64_t>> taken(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    auto& rng = rngs[static_cast<size_t>(t)];
    uint64_t key = rng.next_below(16);
    if (j % 2 == 0) {
      int64_t item = static_cast<int64_t>(t) * 1000000 + j;
      sessions[static_cast<size_t>(t)].set_put(key, item);
      put[static_cast<size_t>(t)].push_back(item);
    } else {
      int64_t got = sessions[static_cast<size_t>(t)].set_take(key);
      if (got != svc::C2Store::kEmpty) taken[static_cast<size_t>(t)].push_back(got);
    }
    return op;
  });
  std::set<int64_t> all_put, all_taken;
  for (const auto& v : put) all_put.insert(v.begin(), v.end());
  for (const auto& v : taken) {
    for (int64_t x : v) {
      EXPECT_TRUE(all_taken.insert(x).second) << "item taken twice: " << x;
      EXPECT_TRUE(all_put.count(x)) << "item " << x << " never put";
    }
  }
  // Drain: everything not yet taken must still be reachable via its key.
  for (uint64_t key = 0; key < 16; ++key) {
    for (;;) {
      int64_t got = sessions[0].set_take(key);
      if (got == svc::C2Store::kEmpty) break;
      EXPECT_TRUE(all_taken.insert(got).second) << "item taken twice in drain";
      EXPECT_TRUE(all_put.count(got));
    }
  }
  EXPECT_EQ(all_taken, all_put);
}

// TAS through routing: per key, at most one winner per generation; resets
// are issued by a single thread (the budget gate is advisory under races).
TEST(C2StoreStress, TasSingleWinnerPerKey) {
  const int threads = 4;
  for (int round = 0; round < 20; ++round) {
    svc::C2Store store(stress_config(threads));
    const uint64_t key = static_cast<uint64_t>(round);
    auto sessions = open_sessions(store, threads);
    std::vector<svc::TasRef> tas;
    for (int t = 0; t < threads; ++t) tas.push_back(sessions[static_cast<size_t>(t)].tas(key));
    std::atomic<int> winners{0};
    rt::run_stress(threads, 1, [&](int t, int) {
      rt::TimedOp op;
      if (tas[static_cast<size_t>(t)].test_and_set() == 0) winners.fetch_add(1);
      return op;
    });
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(sessions[0].tas_read(key), 1);
  }
}

// Session churn: threads open/close sessions mid-stream (dynamic join/leave).
// Lanes must stay exclusive — two live sessions never share one — and every
// open must succeed because at most `threads` <= max_threads sessions are
// ever live at once.
TEST(C2StoreStress, SessionChurnKeepsLanesExclusive) {
  const int threads = 4;
  const int per_thread = 200;
  svc::C2Store store(stress_config(threads));
  std::vector<svc::C2Session> sessions(static_cast<size_t>(threads));
  std::vector<std::vector<int64_t>> got(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    auto& session = sessions[static_cast<size_t>(t)];
    if (!session.valid()) session = store.open_session();
    got[static_cast<size_t>(t)].push_back(session.counter_inc(uint64_t{77}));
    if (j % 17 == t) session.close();  // leave; rejoin on the next op
    return op;
  });
  // Counter values are handed out by a shared F&I: if two sessions ever
  // shared state illegally we'd see duplicates.
  std::set<int64_t> all;
  for (const auto& v : got) {
    for (int64_t x : v) {
      EXPECT_TRUE(all.insert(x).second) << "duplicate counter value " << x;
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(threads * per_thread));
}

// --- blocking session acquisition (waiters vs closers) ----------------------

// More threads than lanes, every open blocking: each worker churns
// open_session (parks under full-lane contention) -> inc -> close (hands the
// lane to the queue head). Checks: counter conservation (no op lost), lane
// exclusivity, and the no-busy-spin bounds — every park is one enqueued
// ticket, and tickets exceed blocking opens only by revocation retries.
// Lanes move between threads on every open, so the per-lane telemetry
// counter_inc cells (single-writer plain registers) must still add up
// exactly: a lost update would mean a new owner did not see its
// predecessor's writes.
TEST(C2StoreStress, BlockingOpensUnderLaneStarvation) {
  const int threads = 6;
  const int per_thread = 400;
  const int lanes = 2;  // threads > lanes: sustained handoff contention
  svc::C2StoreConfig cfg = stress_config(lanes);
  svc::C2Store store(cfg);
  std::vector<std::atomic<int>> owner_flag(static_cast<size_t>(lanes));
  for (auto& f : owner_flag) f.store(0);
  std::atomic<bool> ok{true};
  rt::run_stress(threads, per_thread, [&](int, int) {
    rt::TimedOp op;
    svc::C2Session s = store.open_session();  // blocks; never fails
    int lane = s.lane();
    if (owner_flag[static_cast<size_t>(lane)].exchange(1) != 0) {
      ok.store(false);  // two live sessions shared a lane
    }
    s.counter_inc(uint64_t{3});
    // Yield WHILE holding the lane: on timesliced hosts this hands the core
    // to a thread that must then block, so the handoff path is really
    // exercised (without it, a 1-core run can serve every open from the free
    // set and the contention this test exists for never happens).
    std::this_thread::yield();
    owner_flag[static_cast<size_t>(lane)].store(0);
    return op;  // RAII close: the lane is handed to the oldest waiter
  });
  EXPECT_TRUE(ok.load()) << "a lane was held by two sessions at once";
  svc::C2Session audit = store.open_session();
  EXPECT_EQ(audit.counter_read(uint64_t{3}),
            static_cast<int64_t>(threads) * per_thread)
      << "every blocking open must have produced exactly one op";
  EXPECT_EQ(store.counter_sum(), static_cast<int64_t>(threads) * per_thread);
  if (tel::kEnabled) {
    EXPECT_EQ(counter_incs_counted(store),
              static_cast<int64_t>(threads) * per_thread)
        << "a lane cell lost an add across an owner change";
  }
  // No busy-spin: parks are bounded by enqueued tickets, and tickets exceed
  // the number of opens only by revocation retries (each retry is caused by
  // one overshot handoff). These are structural bounds of the cell protocol,
  // not tuning assumptions.
  const int64_t opens = static_cast<int64_t>(threads) * per_thread;
  EXPECT_LE(store.lane_handoff_parks(), store.lane_handoff_enqueued());
  EXPECT_LE(store.lane_handoff_enqueued(),
            opens + store.lane_handoff_revocations());
  // Contention really exercised the queue: most opens could not be satisfied
  // from the free set alone.
  EXPECT_GT(store.lane_handoff_deliveries(), 0);
}

// Timed opens racing closers: waiters that time out must tombstone their slot
// without swallowing any lane, and a lane handed over in the cancellation
// window must be kept (the session comes back valid), never dropped. The
// audit: every lane is recoverable at quiescence.
TEST(C2StoreStress, TimedOpensNeverLeakLanes) {
  const int threads = 6;
  const int per_thread = 300;
  const int lanes = 2;
  svc::C2StoreConfig cfg = stress_config(lanes);
  svc::C2Store store(cfg);
  std::atomic<int64_t> timeouts{0};
  std::atomic<int64_t> served{0};
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    // A mix of patient and impatient opens; impatient deadlines are short
    // enough to fire for real under 3x oversubscription.
    auto timeout = (t % 2 == 0) ? std::chrono::nanoseconds(std::chrono::microseconds(
                                      (t + j) % 3 == 0 ? 1 : 50))
                                : std::chrono::nanoseconds(std::chrono::milliseconds(100));
    svc::C2Session s = store.open_session_for(timeout);
    if (s.valid()) {
      served.fetch_add(1);
      s.counter_inc(uint64_t{9});
    } else {
      timeouts.fetch_add(1);
    }
    return op;
  });
  // Quiescence: every lane must be recoverable — nothing leaked into dead
  // (cancelled or revoked) handoff slots.
  std::vector<svc::C2Session> all;
  for (int i = 0; i < lanes; ++i) {
    svc::C2Session s = store.open_session_for(std::chrono::seconds(5));
    ASSERT_TRUE(s.valid()) << "lane " << i << " leaked during timeout churn";
    all.push_back(std::move(s));
  }
  EXPECT_FALSE(store.try_open_session().valid());
  svc::C2Session& audit = all.front();
  EXPECT_EQ(audit.counter_read(uint64_t{9}), served.load())
      << "served opens and counted ops must agree";
}

// --- native-runtime foundations at higher contention -----------------------

TEST(NativeSetStress, InterleavedPutTakeNoDuplicates) {
  const int threads = 4;
  const int per_thread = 300;
  for (int round = 0; round < 4; ++round) {
    rt::NativeSet set;
    std::vector<std::vector<int64_t>> put(static_cast<size_t>(threads));
    std::vector<std::vector<int64_t>> taken(static_cast<size_t>(threads));
    rt::run_stress(threads, per_thread, [&](int t, int j) {
      rt::TimedOp op;
      if (j % 3 != 2) {
        int64_t item = (static_cast<int64_t>(round) << 40) + t * 1000000 + j;
        set.put(item);
        put[static_cast<size_t>(t)].push_back(item);
      } else {
        int64_t got = set.take();
        if (got != rt::NativeSet::kEmpty) taken[static_cast<size_t>(t)].push_back(got);
      }
      return op;
    });
    std::set<int64_t> all_put, all_taken;
    for (const auto& v : put) all_put.insert(v.begin(), v.end());
    for (const auto& v : taken) {
      for (int64_t x : v) {
        ASSERT_TRUE(all_taken.insert(x).second) << "taken twice: " << x;
        ASSERT_TRUE(all_put.count(x));
      }
    }
    for (;;) {
      int64_t got = set.take();
      if (got == rt::NativeSet::kEmpty) break;
      ASSERT_TRUE(all_taken.insert(got).second);
    }
    EXPECT_EQ(all_taken, all_put) << "set must conserve items";
  }
}

// Put/take churn that repeatedly crosses segment doublings (64, 192, 448,
// 960 cells) while the verified-taken-prefix hint is being published and
// consumed concurrently: conservation must hold through every growth step.
TEST(NativeSetStress, PutTakeAcrossSegmentGrowth) {
  const int threads = 4;
  const int per_thread = 400;  // ~1070 puts: four segment doublings
  rt::NativeSet set;
  std::vector<std::vector<int64_t>> put(static_cast<size_t>(threads));
  std::vector<std::vector<int64_t>> taken(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    if (j % 3 != 2) {
      int64_t item = t * 1000000 + j;
      set.put(item);
      put[static_cast<size_t>(t)].push_back(item);
    } else {
      int64_t got = set.take();
      if (got != rt::NativeSet::kEmpty) taken[static_cast<size_t>(t)].push_back(got);
    }
    return op;
  });
  std::set<int64_t> all_put, all_taken;
  for (const auto& v : put) all_put.insert(v.begin(), v.end());
  for (const auto& v : taken) {
    for (int64_t x : v) {
      ASSERT_TRUE(all_taken.insert(x).second) << "taken twice: " << x;
      ASSERT_TRUE(all_put.count(x));
    }
  }
  for (;;) {
    int64_t got = set.take();
    if (got == rt::NativeSet::kEmpty) break;
    ASSERT_TRUE(all_taken.insert(got).second);
  }
  EXPECT_EQ(all_taken, all_put) << "growth must conserve items";
}

// Unbounded lane recycling under real threads: closes far beyond the retired
// lifetime capacity, with lanes staying exclusive throughout (TSAN watches
// the hint publication races).
TEST(C2StoreStress, SessionChurnBeyondRetiredRecycleCapacity) {
  const int threads = 4;
  const int per_thread = 9000;  // 36000 closes > 2x the retired 1<<14 default
  svc::C2Store store(stress_config(threads));
  std::atomic<bool> ok{true};
  std::vector<std::atomic<int>> owner_flag(
      static_cast<size_t>(store.config().max_threads));
  for (auto& f : owner_flag) f.store(0);
  rt::run_stress(threads, per_thread, [&](int, int) {
    rt::TimedOp op;
    svc::C2Session s = store.open_session();  // threads <= max_threads: no kNone
    int lane = s.lane();
    if (owner_flag[static_cast<size_t>(lane)].exchange(1) != 0) {
      ok.store(false);  // two live sessions shared a lane
    }
    owner_flag[static_cast<size_t>(lane)].store(0);
    return op;  // RAII close: one lane-set put per op
  });
  EXPECT_TRUE(ok.load()) << "a lane was held by two sessions at once";
}

TEST(NativeFetchIncrementStress, DenseUnderMaximumContention) {
  const int threads = 4;
  const int per_thread = 400;
  rt::NativeFetchIncrement fai;
  std::vector<std::vector<int64_t>> got(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int) {
    rt::TimedOp op;
    got[static_cast<size_t>(t)].push_back(fai.fetch_and_increment());
    return op;
  });
  std::set<int64_t> all;
  for (const auto& v : got) {
    for (int64_t x : v) ASSERT_TRUE(all.insert(x).second) << "duplicate " << x;
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(threads * per_thread));
  EXPECT_EQ(*all.begin(), 0);
  EXPECT_EQ(*all.rbegin(), threads * per_thread - 1);
  EXPECT_EQ(fai.read(), threads * per_thread);
}

// Readable F&I: interleaved reads must be monotone and never exceed the number
// of increments started.
TEST(NativeFetchIncrementStress, ReadsMonotoneAndBounded) {
  const int threads = 4;
  const int per_thread = 200;
  rt::NativeFetchIncrement fai;
  std::atomic<bool> ok{true};
  std::vector<int64_t> last(static_cast<size_t>(threads), 0);
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    if (j % 2 == 0) {
      fai.fetch_and_increment();
    } else {
      int64_t v = fai.read();
      if (v < last[static_cast<size_t>(t)] ||
          v > static_cast<int64_t>(threads) * per_thread) {
        ok.store(false);
      }
      last[static_cast<size_t>(t)] = v;
    }
    return op;
  });
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace c2sl
