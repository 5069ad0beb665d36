// Multi-threaded stress tests (TSAN targets) for online shard resizing:
// writers racing live migrations, racing resizers, and snapshot/transfer
// conservation across resize cuts. All seeds are deterministic; volumes are
// sized to stay fast under ThreadSanitizer.
//
// Resizes run through each worker's OWN session (C2Session::resize) — the
// store-level convenience opens a fresh blocking session, which would
// deadlock here because every lane is already held by a worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
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

/// One representative key per INITIAL shard: the snapshot facet is bucketed
/// under the initial mask forever, so these cover the whole counter aggregate
/// before and after any number of resizes. MUST be called before the first
/// resize — it derives the initial buckets from shard_of, which routes under
/// the published (possibly grown) mask.
std::vector<uint64_t> representative_keys(const svc::C2Store& store) {
  int shards = store.config().initial_shards;
  std::vector<uint64_t> keys;
  std::vector<bool> covered(static_cast<size_t>(shards), false);
  int remaining = shards;
  for (uint64_t k = 0; remaining > 0; ++k) {
    int s = store.shard_of(k);
    if (!covered[static_cast<size_t>(s)]) {
      covered[static_cast<size_t>(s)] = true;
      keys.push_back(k);
      --remaining;
    }
  }
  return keys;
}

// Writers hammer counters and max registers through CACHED refs while thread
// 0 doubles the shard count mid-stream (8 -> 64). The refs were bound under
// epoch 0, so every revalidation/settle path runs under TSAN; afterwards
// conservation (digest sum == incs started), per-key max identity, and the
// epoch-independent snapshot total must all hold exactly.
TEST(ResizeStress, WritersVsResizeStorm) {
  const int threads = 4;
  const int per_thread = 600;
  const uint64_t key_space = 64;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  const int64_t max_bound = store.config().max_value;

  // Epoch-0 routing and snapshot representatives, captured before any resize.
  std::vector<uint64_t> reps = representative_keys(store);
  std::vector<int> init_shard(key_space, 0);
  for (uint64_t k = 0; k < key_space; ++k) {
    init_shard[static_cast<size_t>(k)] = store.shard_of(k);
  }
  std::vector<std::vector<svc::MaxRef>> mx(static_cast<size_t>(threads));
  std::vector<std::vector<svc::CounterRef>> ctr(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    for (uint64_t k = 0; k < key_space; ++k) {
      mx[static_cast<size_t>(t)].push_back(sessions[static_cast<size_t>(t)].max(k));
      ctr[static_cast<size_t>(t)].push_back(sessions[static_cast<size_t>(t)].counter(k));
    }
  }
  std::vector<Rng> rngs;
  for (int t = 0; t < threads; ++t) rngs.emplace_back(9100 + t);
  std::vector<int64_t> incs(static_cast<size_t>(threads), 0);
  // Per-thread per-key max written (merged after the run).
  std::vector<std::vector<int64_t>> wrote(
      static_cast<size_t>(threads), std::vector<int64_t>(key_space, -1));
  std::atomic<int> installed{0};
  std::atomic<bool> reads_ok{true};

  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    auto& rng = rngs[static_cast<size_t>(t)];
    if (t == 0 && j % 100 == 50) {
      // The resize storm: doubles on a cadence, capped at 64 shards.
      int cur = store.shard_count();
      if (cur < 64 &&
          sessions[0].resize(cur * 2) == svc::ResizeStatus::kInstalled) {
        installed.fetch_add(1);
      }
      return op;
    }
    uint64_t key = rng.next_below(key_space);
    switch (j % 3) {
      case 0: {
        ctr[static_cast<size_t>(t)][key].inc();
        ++incs[static_cast<size_t>(t)];
        break;
      }
      case 1: {
        int64_t v = rng.next_in(0, max_bound);
        mx[static_cast<size_t>(t)][key].write(v);
        auto& w = wrote[static_cast<size_t>(t)][key];
        if (v > w) w = v;
        break;
      }
      default: {
        // Reads mid-migration: bounded by what anyone could have written.
        int64_t v = mx[static_cast<size_t>(t)][key].read();
        if (v < 0 || v > max_bound) reads_ok.store(false);
        break;
      }
    }
    return op;
  });

  EXPECT_TRUE(reads_ok.load()) << "a mid-migration read escaped its bounds";
  ASSERT_GE(installed.load(), 1) << "the storm must complete resizes";
  EXPECT_EQ(store.shard_count(), 8 << installed.load());
  EXPECT_EQ(store.routing_epoch(), installed.load());

  int64_t total_incs = 0;
  for (int64_t v : incs) total_incs += v;
  EXPECT_EQ(store.counter_sum(), total_incs)
      << "conservation: every inc lands in the digest exactly once across "
         "every migration cut";

  // Per-key audit through a FRESH session (routes under the final epoch).
  // The workers' sessions hold every lane, so release them first — a blocking
  // open would park forever otherwise. Keys collapse to shards and slots only
  // ever exchange state along their nested-mask parent chain, so a key's read
  // is bounded below by its OWN writes (monotone facets never lose one) and
  // above by its epoch-0 collision class (state never crosses initial-shard
  // families, no matter how many migrations ran).
  for (auto& sess : sessions) sess.close();
  svc::C2Session audit = store.open_session();
  std::vector<int64_t> family_max(8, 0);
  std::vector<int64_t> own_max(key_space, 0);
  for (uint64_t k = 0; k < key_space; ++k) {
    for (int t = 0; t < threads; ++t) {
      int64_t w = wrote[static_cast<size_t>(t)][k];
      auto& own = own_max[static_cast<size_t>(k)];
      if (w > own) own = w;
    }
    auto& fam = family_max[static_cast<size_t>(init_shard[static_cast<size_t>(k)])];
    fam = std::max(fam, own_max[static_cast<size_t>(k)]);
  }
  for (uint64_t k = 0; k < key_space; ++k) {
    int64_t v = audit.max_read(k);
    EXPECT_GE(v, own_max[static_cast<size_t>(k)]) << "key " << k;
    EXPECT_LE(v, family_max[static_cast<size_t>(init_shard[static_cast<size_t>(k)])])
        << "key " << k;
  }

  // The epoch-independent snapshot facet agrees with the digest.
  int64_t snap_sum = 0;
  for (int64_t v : audit.snapshot_counters(reps)) snap_sum += v;
  EXPECT_EQ(snap_sum, total_incs);
}

// Every thread races to install the SAME doubling, round after round: the
// one-shot claim must admit exactly one winner per epoch, and losers must
// fail closed (kNoop / kInFlight) without disturbing the spine.
TEST(ResizeStress, RacingResizersUniqueWinnerPerEpoch) {
  const int threads = 4;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  for (int round = 0; round < 3; ++round) {
    const int target = 16 << round;
    std::atomic<int> winners{0};
    std::atomic<int> losers{0};
    std::atomic<bool> clean_losses{true};
    rt::run_stress(threads, 1, [&](int t, int) {
      rt::TimedOp op;
      svc::ResizeStatus st = sessions[static_cast<size_t>(t)].resize(target);
      if (st == svc::ResizeStatus::kInstalled) {
        winners.fetch_add(1);
      } else {
        if (st != svc::ResizeStatus::kNoop &&
            st != svc::ResizeStatus::kInFlight) {
          clean_losses.store(false);
        }
        losers.fetch_add(1);
      }
      return op;
    });
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(losers.load(), threads - 1) << "round " << round;
    EXPECT_TRUE(clean_losses.load()) << "a loser saw kPoisoned in round " << round;
    // Losers may have returned while the winner was still migrating, but
    // run_stress joins its threads, so by here the round's epoch is live.
    EXPECT_EQ(store.shard_count(), target);
    EXPECT_EQ(store.routing_epoch(), round + 1);
  }
}

// Transfers race snapshots race a resize storm: every snapshot cut — taken
// through a ref bound under epoch 0, while migrations run — must conserve
// (balances sum to zero), and the final full replay must agree.
TEST(ResizeStress, SnapshotConservationAcrossResizeCuts) {
  const int threads = 4;
  const int per_thread = 400;
  svc::C2Store store(stress_config(threads));
  auto sessions = open_sessions(store, threads);
  std::vector<uint64_t> reps = representative_keys(store);
  ASSERT_GE(reps.size(), 2u);
  std::vector<svc::SnapKey> slots;
  for (uint64_t k : reps) slots.push_back(svc::SnapKey::counter(k));
  svc::SnapshotRef snap = sessions[3].snapshot_ref(slots);
  std::vector<Rng> rngs;
  for (int t = 0; t < threads; ++t) rngs.emplace_back(9900 + t);
  std::atomic<int> installed{0};
  std::atomic<bool> conserved{true};

  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    auto& rng = rngs[static_cast<size_t>(t)];
    if (t == 0) {
      if (j % 80 == 40) {
        int cur = store.shard_count();
        if (cur < 64 &&
            sessions[0].resize(cur * 2) == svc::ResizeStatus::kInstalled) {
          installed.fetch_add(1);
        }
      }
      return op;
    }
    if (t == 3) {
      int64_t sum = 0;
      for (int64_t v : snap.read()) sum += v;
      if (sum != 0) conserved.store(false);
      return op;
    }
    size_t from = static_cast<size_t>(rng.next_below(reps.size()));
    size_t to = static_cast<size_t>(rng.next_below(reps.size() - 1));
    if (to >= from) ++to;
    sessions[static_cast<size_t>(t)].transfer(reps[from], reps[to],
                                              rng.next_in(1, 3));
    return op;
  });

  EXPECT_TRUE(conserved.load())
      << "a snapshot observed a torn transfer across a resize cut";
  EXPECT_GE(installed.load(), 1) << "the storm must complete resizes";
  int64_t final_sum = 0;
  for (int64_t v : snap.read()) final_sum += v;
  EXPECT_EQ(final_sum, 0);
  // snap (a borrowed view of sessions[3]) is done; release every lane before
  // the blocking audit open.
  for (auto& sess : sessions) sess.close();
  svc::C2Session audit = store.open_session();
  int64_t fresh_sum = 0;
  for (int64_t v : audit.snapshot_counters(reps)) fresh_sum += v;
  EXPECT_EQ(fresh_sum, 0) << "quiescent full replay must conserve";
}

}  // namespace
}  // namespace c2sl
