// Functional tests for the C2Store service layer: routing, lazy shard
// initialisation, sessions and typed key-bound refs, aggregate digests, and the
// grep-enforced "no CAS anywhere in service plumbing" guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/c2store.h"
#include "service/shard_router.h"

namespace c2sl {
namespace {

/// The routed slot of a key among `shards`: the store's hash-then-mask.
template <typename Key>
int route(const Key& key, int shards) {
  return svc::slot_of(svc::hash_key(key), shards);
}

TEST(SlotOf, DeterministicAndInRange) {
  for (uint64_t k = 0; k < 1000; ++k) {
    int s = route(k, 16);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 16);
    EXPECT_EQ(s, route(k, 16)) << "routing must be stable";
  }
  EXPECT_EQ(route(std::string_view("user:1"), 16),
            route(std::string_view("user:1"), 16));
}

TEST(SlotOf, SpreadsKeysAcrossShards) {
  std::set<int> hit;
  for (uint64_t k = 0; k < 256; ++k) hit.insert(route(k, 16));
  // 256 hashed keys over 16 shards: every shard should be touched.
  EXPECT_EQ(hit.size(), 16u);
}

TEST(SlotOf, StringAndIntKeysShareTheSpace) {
  std::set<int> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(route(std::string_view("key:" + std::to_string(i)), 8));
  }
  EXPECT_GT(hit.size(), 4u);  // string hashing also spreads
}

// String-key routing must be close to uniform: hash 16k distinct keys of a
// realistic shape onto 16 shards and require every shard's share within 25%
// of the mean. (FNV-1a alone has weak low bits — the mix64 finalizer is what
// this test actually guards.)
TEST(SlotOf, StringKeyDistributionIsUniform) {
  const int shards = 16;
  const int keys = 16384;
  std::vector<int> count(shards, 0);
  for (int i = 0; i < keys; ++i) {
    const std::string key = "user:" + std::to_string(i) + "/score";
    ++count[static_cast<size_t>(route(std::string_view(key), shards))];
  }
  const double mean = static_cast<double>(keys) / shards;
  for (int s = 0; s < shards; ++s) {
    EXPECT_GT(count[static_cast<size_t>(s)], mean * 0.75) << "shard " << s << " starved";
    EXPECT_LT(count[static_cast<size_t>(s)], mean * 1.25) << "shard " << s << " overloaded";
  }
}

svc::C2StoreConfig small_config() {
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 8;
  cfg.max_threads = 4;
  cfg.max_value = 10;  // lane_max(4) = 65,535
  cfg.tas_max_resets = 6;
  return cfg;
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

/// counter_inc ops counted by telemetry (the per-lane cells summed; exact at
/// quiescence). Meaningful only under tel::kEnabled.
int64_t counter_incs_counted(const svc::C2Store& store) {
  return static_cast<int64_t>(store.metrics_snapshot()
                                  .op_counts[static_cast<int>(tel::TelOp::kCounterInc)]);
}

// Config errors must surface at construction with service-level messages —
// never from inside a lazy-init winner (where a throw would poison the shard).
TEST(C2Store, InvalidConfigsRejectedUpFront) {
  auto bad = [](auto mutate) {
    svc::C2StoreConfig cfg = small_config();
    mutate(cfg);
    EXPECT_THROW(svc::C2Store store(cfg), PreconditionError);
  };
  bad([](svc::C2StoreConfig& c) { c.tas_max_resets = -1; });
  bad([](svc::C2StoreConfig& c) { c.max_value = 0; });
  bad([](svc::C2StoreConfig& c) { c.max_threads = 0; });
  bad([](svc::C2StoreConfig& c) { c.max_threads = 65; });  // 64 lanes per word
  bad([](svc::C2StoreConfig& c) { c.initial_shards = 12; });  // not a power of two
  // One past each packing edge (lane_max(n) = 2^(64/n) - 1; the edges
  // themselves are accepted in PackingEdgesHoldTheirValues).
  bad([](svc::C2StoreConfig& c) {
    c.max_threads = 8;
    c.max_value = 256;  // an 8-bit lane holds 255
  });
  bad([](svc::C2StoreConfig& c) {
    c.max_threads = 8;
    c.tas_max_resets = 255;  // generations 0..255 need value 256
  });
  bad([](svc::C2StoreConfig& c) { c.max_value = 65536; });  // 4 lanes of 16 bits
  bad([](svc::C2StoreConfig& c) {
    c.max_threads = 1;  // the 64-bit lane is wider than the journal's value field
    c.max_value = rt::JournalCodec::kMaxValue + 1;
  });
  // Bounds near INT64_MAX must not wrap into range.
  bad([](svc::C2StoreConfig& c) {
    c.max_threads = 2;
    c.max_value = int64_t{1} << 62;  // 2 * 2^62 wraps to INT64_MIN
  });
  bad([](svc::C2StoreConfig& c) { c.max_value = INT64_MAX; });
  bad([](svc::C2StoreConfig& c) { c.tas_max_resets = INT64_MAX; });  // + 1 wraps
}

// Each packing edge is accepted, and a value at the edge reads back through
// every read path: the shard register, the max digest and the journal replay.
TEST(C2Store, PackingEdgesHoldTheirValues) {
  auto holds = [](int lanes, int64_t max_value, int64_t resets) {
    svc::C2StoreConfig cfg = small_config();
    cfg.max_threads = lanes;
    cfg.max_value = max_value;
    cfg.tas_max_resets = resets;
    svc::C2Store store(cfg);
    svc::C2Session s = store.open_session();
    s.max_write(uint64_t{5}, max_value - 1);
    s.max_write(uint64_t{5}, max_value);
    EXPECT_EQ(s.max_read(uint64_t{5}), max_value) << lanes << " lanes";
    EXPECT_EQ(store.global_max(), max_value) << lanes << " lanes";
    EXPECT_EQ(s.snapshot({svc::SnapKey::max(5)}), std::vector<int64_t>{max_value})
        << lanes << " lanes";
  };
  ASSERT_EQ(rt::JournalCodec::kMaxValue, (int64_t{1} << 37) - 1);
  holds(8, 255, 254);
  holds(4, 65535, 65534);
  holds(1, rt::JournalCodec::kMaxValue, INT64_MAX - 1);
}

// Journal entries carry initial-mask buckets in 24 bits. A larger store must
// fail at construction: otherwise a keyed write to a high bucket would apply
// its shard step and sum-digest add before the journal rejected it. No writes
// here — materialising a slot segment that high allocates gigabytes.
TEST(C2Store, InitialShardsCappedAtTheJournalBucketField) {
  ASSERT_EQ(rt::KeyedVersionDigest::kMaxBuckets, 1 << 24);
  svc::C2StoreConfig cfg = small_config();
  cfg.initial_shards = 1 << 25;
  try {
    svc::C2Store store(cfg);
    ADD_FAILURE() << "initial_shards = 2^25 constructed";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("at most 2^24"), std::string::npos) << e.what();
  }
  cfg.initial_shards = 1 << 24;
  svc::C2Store store(cfg);
  EXPECT_EQ(store.shard_count(), 1 << 24);
  EXPECT_EQ(store.initialized_shards(), 0);
}

// --- sessions ---------------------------------------------------------------

TEST(C2Session, OpenUseCloseLifecycle) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  EXPECT_TRUE(s.valid());
  EXPECT_GE(s.lane(), 0);
  EXPECT_LT(s.lane(), store.config().max_threads);
  s.max_write(uint64_t{1}, 3);
  EXPECT_EQ(s.max_read(uint64_t{1}), 3);
  s.close();
  EXPECT_FALSE(s.valid());
  s.close();  // idempotent
  EXPECT_THROW(s.max(uint64_t{1}), PreconditionError) << "closed session must not bind";
}

TEST(C2Session, MoveTransfersTheLane) {
  svc::C2Store store(small_config());
  svc::C2Session a = store.open_session();
  int lane = a.lane();
  svc::C2Session b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.lane(), lane);
  svc::C2Session c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.lane(), lane);
}

TEST(C2Session, ConcurrentSessionsGetDistinctLanes) {
  svc::C2Store store(small_config());
  std::vector<svc::C2Session> open;
  std::set<int> lanes;
  for (int i = 0; i < store.config().max_threads; ++i) {
    open.push_back(store.open_session());
    EXPECT_TRUE(lanes.insert(open.back().lane()).second) << "lane handed out twice";
  }
  // All lanes held: try_open_session reports invalid and the timed form
  // gives up cleanly; open_session() now BLOCKS instead of throwing (the
  // blocking path is exercised below and under TSAN in
  // tests/c2store_stress_test.cpp).
  EXPECT_FALSE(store.try_open_session().valid());
  EXPECT_FALSE(store.open_session_for(std::chrono::milliseconds(2)).valid());
}

TEST(C2Session, BlockingOpenWaitsForAClosingSession) {
  svc::C2Store store(small_config());
  std::vector<svc::C2Session> held;
  for (int i = 0; i < store.config().max_threads; ++i) {
    held.push_back(store.open_session());
  }
  const int freed_lane = held.back().lane();
  std::atomic<int> got_lane{-1};
  std::thread blocked([&] {
    svc::C2Session s = store.open_session();  // parks: every lane is held
    got_lane.store(s.lane());
  });
  // Wait until the opener is genuinely parked on the handoff queue, then
  // close one session: its lane must be handed over directly.
  while (store.lane_handoff_parks() == 0) std::this_thread::yield();
  EXPECT_EQ(got_lane.load(), -1) << "open_session returned while all lanes held";
  held.pop_back();
  blocked.join();
  EXPECT_EQ(got_lane.load(), freed_lane)
      << "the closing session's lane must be handed to the parked opener";
  EXPECT_GE(store.lane_handoff_deliveries(), 1);
}

TEST(C2Session, ClosedLanesAreRecycled) {
  svc::C2Store store(small_config());
  const int n = store.config().max_threads;
  {
    std::vector<svc::C2Session> wave;
    for (int i = 0; i < n; ++i) wave.push_back(store.open_session());
  }  // RAII: all lanes released
  // A second full wave must succeed entirely from recycled lanes, and no
  // lane beyond the configured n may appear.
  std::vector<svc::C2Session> wave2;
  std::set<int> lanes;
  for (int i = 0; i < n; ++i) {
    wave2.push_back(store.open_session());
    EXPECT_TRUE(lanes.insert(wave2.back().lane()).second);
  }
  EXPECT_EQ(lanes.size(), static_cast<size_t>(n));
  EXPECT_LT(*lanes.rbegin(), n) << "second wave must recycle, not mint lanes";
  EXPECT_FALSE(store.try_open_session().valid());
}

// --- typed key-bound refs ---------------------------------------------------

TEST(C2Store, LazyInitializationIsOnDemand) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  EXPECT_EQ(store.initialized_shards(), 0);
  // Binding a ref routes but does NOT materialise the shard.
  svc::MaxRef m = s.max(uint64_t{7});
  svc::CounterRef c = s.counter(uint64_t{42});
  EXPECT_EQ(store.initialized_shards(), 0);
  c.inc();
  EXPECT_EQ(store.initialized_shards(), 1);
  // Reads of untouched keys do not materialise shards.
  EXPECT_EQ(m.read(), 0);
  EXPECT_EQ(s.counter_read(uint64_t{9}), 0);
  EXPECT_EQ(s.set_take(uint64_t{11}), svc::C2Store::kEmpty);
  EXPECT_EQ(store.initialized_shards(), 1);
}

TEST(C2Store, MaxRegisterPerKeySemantics) {
  svc::C2Store store(small_config());
  svc::C2Session s0 = store.open_session();
  svc::C2Session s1 = store.open_session();
  svc::C2Session s2 = store.open_session();
  s0.max_write(uint64_t{1}, 3);
  s1.max_write(uint64_t{1}, 7);
  s2.max_write(uint64_t{1}, 5);
  EXPECT_EQ(s0.max_read(uint64_t{1}), 7);
  EXPECT_EQ(store.global_max(), 7);
}

TEST(C2Store, CounterIncrementAndSum) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  uint64_t a = 100, b = 101;
  while (store.shard_of(b) == store.shard_of(a)) ++b;  // two distinct shards
  svc::CounterRef ca = s.counter(a);
  svc::CounterRef cb = s.counter(b);
  for (int i = 0; i < 10; ++i) ca.inc();
  for (int i = 0; i < 5; ++i) cb.inc();
  EXPECT_EQ(ca.read(), 10);
  EXPECT_EQ(cb.read(), 5);
  EXPECT_EQ(store.counter_sum(), 15);
  EXPECT_EQ(sum_of_shard_counters(store, s), 15)
      << "digest must equal the shard counters at quiescence";
}

// --- counter-sum digest edge cases ------------------------------------------

// The digest read must not materialise anything: a store with ZERO initialized
// shards answers 0 from the digest word alone (and so do the shard counters).
TEST(C2Store, CounterSumOnZeroInitializedShards) {
  svc::C2Store store(small_config());
  EXPECT_EQ(store.counter_sum(), 0);
  EXPECT_EQ(store.initialized_shards(), 0)
      << "aggregate reads must not materialise shards";
  // Same through a session, still without materialising.
  svc::C2Session s = store.open_session();
  EXPECT_EQ(s.counter_sum(), 0);
  EXPECT_EQ(sum_of_shard_counters(store, s), 0);
  EXPECT_EQ(store.initialized_shards(), 0);
}

// A single-lane store (max_threads = 1) routes every inc through lane 0; the
// digest, the shard counters and lane 0's telemetry count must all agree.
TEST(C2Store, CounterSumOnSingleLaneStore) {
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 4;
  cfg.max_threads = 1;
  cfg.max_value = 63;
  cfg.tas_max_resets = 62;
  svc::C2Store store(cfg);
  svc::C2Session s = store.open_session();
  EXPECT_EQ(s.lane(), 0);
  for (uint64_t k = 0; k < 16; ++k) s.counter(k).inc();
  EXPECT_EQ(store.counter_sum(), 16);
  EXPECT_EQ(sum_of_shard_counters(store, s), 16);
  if (tel::kEnabled) {
    EXPECT_EQ(counter_incs_counted(store), 16)
        << "single lane carries every counter_inc";
  }
}

// Lane recycling across session close/reopen: the digest total must keep
// accumulating across session generations, and a recycled lane's telemetry
// cell carries the incs of every session that held it. One lane, so the
// reopen must get the same lane back (with more, the lane set hands out the
// lanes no session has held yet first).
TEST(C2Store, CounterSumSurvivesSessionCloseReopen) {
  svc::C2StoreConfig cfg = small_config();
  cfg.max_threads = 1;
  svc::C2Store store(cfg);
  const uint64_t key = 7;
  int first_lane;
  {
    svc::C2Session s = store.open_session();
    first_lane = s.lane();
    for (int i = 0; i < 5; ++i) s.counter(key).inc();
    EXPECT_EQ(store.counter_sum(), 5);
  }  // RAII close: the lane goes back to the registry
  {
    svc::C2Session s = store.open_session();
    EXPECT_EQ(s.lane(), first_lane) << "the only lane must be recycled";
    for (int i = 0; i < 3; ++i) s.counter(key).inc();
    EXPECT_EQ(store.counter_sum(), 8) << "digest must accumulate across sessions";
    if (tel::kEnabled) {
      EXPECT_EQ(counter_incs_counted(store), 8)
          << "a recycled lane's count spans session generations";
    }
  }
  // And the per-key counter agrees with the digest at quiescence.
  svc::C2Session s = store.open_session();
  EXPECT_EQ(s.counter(key).read(), 8);
  EXPECT_EQ(sum_of_shard_counters(store, s), 8);
}

// Two lanes' incs: at quiescence the digest equals telemetry's counter_inc
// count, the sum of the two lanes' single-writer cells.
TEST(C2Store, CounterSumMatchesCounterIncCount) {
  svc::C2Store store(small_config());
  svc::C2Session s0 = store.open_session();
  svc::C2Session s1 = store.open_session();
  for (int i = 0; i < 6; ++i) s0.counter(uint64_t{1}).inc();
  for (int i = 0; i < 4; ++i) s1.counter(uint64_t{2}).inc();
  EXPECT_EQ(store.counter_sum(), 10);
  if (tel::kEnabled) {
    EXPECT_EQ(counter_incs_counted(store), 10);
  }
}

TEST(C2Store, TasWinnerResetAndBudget) {
  svc::C2Store store(small_config());
  svc::C2Session s0 = store.open_session();
  svc::C2Session s1 = store.open_session();
  svc::TasRef t0 = s0.tas(uint64_t{5});
  svc::TasRef t1 = s1.tas(uint64_t{5});
  EXPECT_EQ(t0.read(), 0);
  EXPECT_EQ(t0.test_and_set(), 0);  // first caller wins
  EXPECT_EQ(t1.test_and_set(), 1);
  EXPECT_EQ(t1.read(), 1);
  int resets = 0;
  while (t0.reset() == svc::ResetResult::kOk) {
    EXPECT_EQ(t0.read(), 0);
    EXPECT_EQ(t0.test_and_set(), 0);  // winnable again after reset
    ++resets;
  }
  EXPECT_EQ(resets, static_cast<int>(small_config().tas_max_resets));
}

// The typed ResetResult must report budget exhaustion (not just refuse): after
// the budget is spent every further reset is kBudgetSpent and a no-op.
TEST(C2Store, TasResetBudgetExhaustionIsTyped) {
  svc::C2StoreConfig cfg = small_config();
  cfg.tas_max_resets = 2;
  cfg.max_value = 10;
  svc::C2Store store(cfg);
  svc::C2Session s = store.open_session();
  svc::TasRef t = s.tas(uint64_t{9});
  for (int g = 0; g < 2; ++g) {
    EXPECT_EQ(t.test_and_set(), 0);
    EXPECT_EQ(t.reset(), svc::ResetResult::kOk) << "generation " << g;
  }
  EXPECT_EQ(t.test_and_set(), 0);
  EXPECT_EQ(t.reset(), svc::ResetResult::kBudgetSpent);
  EXPECT_EQ(t.read(), 1) << "a kBudgetSpent reset must not recycle the TAS";
  EXPECT_EQ(s.tas_reset(uint64_t{9}), svc::ResetResult::kBudgetSpent)
      << "one-shot convenience must agree with the ref";
}

TEST(C2Store, SetPutTakeRoundtrip) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  svc::SetRef box = s.set(uint64_t{3});
  box.put(111);
  box.put(222);
  std::set<int64_t> taken;
  taken.insert(box.take());
  taken.insert(box.take());
  EXPECT_EQ(taken, (std::set<int64_t>{111, 222}));
  EXPECT_EQ(box.take(), svc::C2Store::kEmpty);
}

TEST(C2Store, CollidingKeysShareTheSlotObjects) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  // Find two distinct integer keys that route to the same shard.
  uint64_t a = 0, b = 1;
  while (store.shard_of(b) != store.shard_of(a)) ++b;
  s.counter(a).inc();
  EXPECT_EQ(s.counter(b).read(), 1)
      << "colliding keys name the same striped instance by design";
}

TEST(C2Store, StringKeysRouteLikeIntKeys) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  s.max("alpha").write(4);
  EXPECT_EQ(s.max("alpha").read(), 4);
  s.set_put("box", 9);
  EXPECT_EQ(s.set_take("box"), 9);
}

// Rebinding the same key — from the same or another session — must route to
// the same shard and reach the same underlying object instance.
TEST(C2Store, RefRebindingIsStable) {
  svc::C2Store store(small_config());
  svc::C2Session s1 = store.open_session();
  svc::C2Session s2 = store.open_session();
  const std::string key = "user:1042/score";
  svc::MaxRef a = s1.max(key);
  svc::MaxRef b = s1.max(key);   // rebind, same session
  svc::MaxRef c = s2.max(key);   // rebind, different session
  EXPECT_EQ(a.shard(), b.shard());
  EXPECT_EQ(a.shard(), c.shard());
  EXPECT_EQ(a.shard(), store.shard_of(std::string_view(key)));
  a.write(6);
  EXPECT_EQ(b.read(), 6) << "rebound ref must see the same object";
  EXPECT_EQ(c.read(), 6) << "other sessions bind the same object";
  // Counters agree too: increments through one binding are visible in all.
  s1.counter(key).inc();
  s2.counter(key).inc();
  EXPECT_EQ(s1.counter(key).read(), 2);
}

TEST(C2Store, GlobalMaxAcrossManyShards) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  for (uint64_t k = 0; k < 32; ++k) {
    s.max(k).write(static_cast<int64_t>(k % 10));
  }
  EXPECT_EQ(store.global_max(), 9);
  EXPECT_GT(store.initialized_shards(), 1);
}

// The service and native-runtime layers must never use CAS — the
// whole point of the paper (and the ROADMAP north star) is that consensus
// number 2 suffices. std::atomic exchange and fetch_add are the only RMW
// primitives allowed. Baselines (src/baselines) and the simulated consensus
// hierarchy (src/primitives, src/agreement) intentionally contain CAS and are
// excluded.
TEST(C2Store, NoCasInServiceOrRuntimeSources) {
  namespace fs = std::filesystem;
  const std::vector<std::string> dirs = {
      std::string(C2SL_SOURCE_DIR) + "/src/service",
      std::string(C2SL_SOURCE_DIR) + "/src/runtime",
  };
  const std::vector<std::string> forbidden = {
      "compare_exchange", "compare_and_swap", "__sync_val_compare",
      "__sync_bool_compare", "cmpxchg", "atomic_compare"};
  int files_scanned = 0;
  for (const auto& dir : dirs) {
    ASSERT_TRUE(fs::exists(dir)) << dir;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path());
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string text = ss.str();
      ++files_scanned;
      for (const auto& token : forbidden) {
        EXPECT_EQ(text.find(token), std::string::npos)
            << "forbidden primitive `" << token << "` in " << entry.path();
      }
    }
  }
  EXPECT_GE(files_scanned, 10);
}

}  // namespace
}  // namespace c2sl
