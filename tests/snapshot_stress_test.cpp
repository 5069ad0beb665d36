// Multi-threaded stress tests (TSAN/ASAN targets) for the snapshot surface:
// the transfer_audit conservation invariant — concurrent transfers across
// random key pairs while snapshot readers assert that every observed cut
// conserves the transferred sum — plus snapshot/write races over the journal
// deposit protocol and session-churn snapshots on recycled lanes. All seeds
// are deterministic; volumes are sized to stay fast under the sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "runtime/stress.h"
#include "service/c2store.h"
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

std::vector<svc::C2Session> open_sessions(svc::C2Store& store, int threads) {
  std::vector<svc::C2Session> out;
  out.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) out.push_back(store.open_session());
  return out;
}

/// One integer key per shard (keys collapse to shards; auditing one
/// representative per shard is what makes the conservation sum exact).
std::vector<uint64_t> shard_representatives(const svc::C2Store& store) {
  std::vector<uint64_t> keys;
  std::set<int> covered;
  for (uint64_t k = 0; static_cast<int>(covered.size()) < store.shard_count(); ++k) {
    if (covered.insert(store.shard_of(k)).second) keys.push_back(k);
  }
  return keys;
}

// The transfer_audit invariant, raced: transferors move random amounts
// between random shard pairs while snapshot readers run concurrently. A
// transfer is ONE journal entry, so EVERY snapshot — no matter where its
// tail read cuts the journal — must see the balances sum to zero. A torn
// implementation (separate debit and credit entries, or a non-atomic
// replay) fails this within a handful of schedules.
TEST(SnapshotStress, ConcurrentTransfersConserveTheSum) {
  const int threads = 4;
  const int per_thread = 400;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  const std::vector<uint64_t> keys = shard_representatives(store);
  // Threads 0..1 transfer; threads 2..3 snapshot and audit.
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    svc::C2Session& s = sessions[static_cast<size_t>(t)];
    if (t < 2) {
      Rng rng(static_cast<uint64_t>(t) * 7919 + static_cast<uint64_t>(j));
      size_t from = static_cast<size_t>(rng.next_below(keys.size()));
      size_t to = static_cast<size_t>(rng.next_below(keys.size() - 1));
      if (to >= from) ++to;
      s.transfer(keys[from], keys[to], static_cast<int64_t>(rng.next_in(1, 3)));
    } else {
      std::vector<int64_t> view = s.snapshot_counters(keys);
      int64_t sum = 0;
      for (int64_t v : view) sum += v;
      EXPECT_EQ(sum, 0) << "snapshot observed a torn transfer";
    }
    return op;
  });
  // Quiescent audit from a fresh replay cursor.
  std::vector<int64_t> final_view = sessions[0].snapshot_counters(keys);
  int64_t sum = 0;
  for (int64_t v : final_view) sum += v;
  EXPECT_EQ(sum, 0);
  EXPECT_EQ(store.journal_tickets(), 2 * per_thread);
}

// Incrementers + snapshotters: every snapshot's total must be a value the
// inc-only history passes through (between 0 and the final total, and at
// quiescence exactly the counter reads). Exercises the deposit-protocol
// acquire path: replayers spin on entries whose writers sit between their
// ticket fetch&add and their release store.
TEST(SnapshotStress, SnapshotsRaceIncrementersMonotonically) {
  const int threads = 4;
  const int per_thread = 300;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  const std::vector<uint64_t> keys = shard_representatives(store);
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    svc::C2Session& s = sessions[static_cast<size_t>(t)];
    if (t < 2) {
      s.counter(keys[static_cast<size_t>(j) % keys.size()]).inc();
    } else {
      std::vector<int64_t> view = s.snapshot_counters(keys);
      int64_t sum = 0;
      for (int64_t v : view) {
        EXPECT_GE(v, 0);
        sum += v;
      }
      EXPECT_LE(sum, 2 * per_thread);
    }
    return op;
  });
  // Quiescent identity: the snapshot equals the per-key counter reads.
  std::vector<int64_t> view = sessions[0].snapshot_counters(keys);
  int64_t total = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(view[i], sessions[0].counter_read(keys[i]));
    total += view[i];
  }
  EXPECT_EQ(total, 2 * per_thread);
}

// Max keys under concurrent writers: every snapshot component must be a
// value some writer journaled (or zero), and the quiescent snapshot agrees
// with the per-key max reads.
TEST(SnapshotStress, MaxFacetSnapshotsUnderContention) {
  const int threads = 4;
  const int per_thread = 200;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  const std::vector<uint64_t> keys = shard_representatives(store);
  const int64_t vmax = stress_config(threads).max_value;
  std::vector<svc::SnapKey> mkeys;
  for (uint64_t k : keys) mkeys.push_back(svc::SnapKey::max(k));
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    svc::C2Session& s = sessions[static_cast<size_t>(t)];
    if (t < 2) {
      Rng rng(static_cast<uint64_t>(t) * 104729 + static_cast<uint64_t>(j));
      s.max(keys[static_cast<size_t>(rng.next_below(keys.size()))])
          .write(rng.next_in(1, vmax));
    } else {
      for (int64_t v : s.snapshot(mkeys)) {
        EXPECT_GE(v, 0);
        EXPECT_LE(v, vmax);
      }
    }
    return op;
  });
  std::vector<int64_t> view = sessions[0].snapshot(mkeys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(view[i], sessions[0].max_read(keys[i]))
        << "quiescent max snapshot must equal the per-key read";
  }
}

// Session churn: waves of short-lived sessions snapshot on freshly recycled
// lanes while transferors keep the journal moving. Every fresh session
// replays the whole journal from cursor 0 — conservation must hold on every
// one of those full replays, and lane recycling must not leak replay state
// between session generations.
TEST(SnapshotStress, SessionChurnSnapshotsOnRecycledLanes) {
  const int threads = 4;
  const int per_thread = 60;
  svc::C2Store store(stress_config(threads));
  const std::vector<uint64_t> keys = shard_representatives(store);
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    svc::C2Session s = store.open_session();  // churn: open per op
    if (t < 2) {
      Rng rng(static_cast<uint64_t>(t) * 31337 + static_cast<uint64_t>(j));
      size_t from = static_cast<size_t>(rng.next_below(keys.size()));
      size_t to = static_cast<size_t>(rng.next_below(keys.size() - 1));
      if (to >= from) ++to;
      s.transfer(keys[from], keys[to], 1);
    } else {
      std::vector<int64_t> view = s.snapshot_counters(keys);
      int64_t sum = 0;
      for (int64_t v : view) sum += v;
      EXPECT_EQ(sum, 0) << "fresh-session full replay observed a torn transfer";
    }
    return op;
  });
  EXPECT_EQ(store.journal_tickets(), 2 * per_thread);
}

}  // namespace
}  // namespace c2sl
