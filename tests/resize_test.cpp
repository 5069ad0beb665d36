// Functional tests for online shard resizing (PR 9): the RoutingEpoch spine's
// claim/install/publish protocol and failure contracts, C2Store::resize under
// live sessions, typed-ref rebinding across epoch bumps, and aggregate and
// snapshot identity across migrations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/routing_epoch.h"
#include "service/c2store.h"
#include "telemetry/telemetry.h"

namespace c2sl {
namespace {

using rt::RoutingEpoch;
using Status = rt::RoutingEpoch::ResizeStatus;

// --- the epoch spine in isolation -------------------------------------------

TEST(RoutingEpochSpine, StampEncodingRoundTrips) {
  EXPECT_EQ(RoutingEpoch::published_epoch(0), 0);
  EXPECT_FALSE(RoutingEpoch::installing(0));
  EXPECT_EQ(RoutingEpoch::newest_epoch(0), 0);
  // 2e+1: epoch e published, e+1 installing — writers dual-apply under e+1.
  EXPECT_EQ(RoutingEpoch::published_epoch(1), 0);
  EXPECT_TRUE(RoutingEpoch::installing(1));
  EXPECT_EQ(RoutingEpoch::newest_epoch(1), 1);
  EXPECT_EQ(RoutingEpoch::published_epoch(4), 2);
  EXPECT_EQ(RoutingEpoch::newest_epoch(5), 3);
}

TEST(RoutingEpochSpine, ClaimInstallPublishLifecycle) {
  RoutingEpoch re(4);
  EXPECT_EQ(re.current_epoch(), 0);
  EXPECT_EQ(re.current_shards(), 4);

  RoutingEpoch::Claim c;
  ASSERT_EQ(re.try_begin(8, c), Status::kInstalled);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.epoch, 1);
  EXPECT_EQ(c.shards, 8);
  // Installing: the published epoch is still 0, but the stamp is odd and the
  // new count is already readable (writers need it for dual-application).
  EXPECT_TRUE(RoutingEpoch::installing(re.stamp()));
  EXPECT_EQ(re.current_epoch(), 0);
  EXPECT_EQ(re.shards_of(1), 8);
  // A second resize during the install window fails without touching state.
  RoutingEpoch::Claim other;
  EXPECT_EQ(re.try_begin(16, other), Status::kInFlight);

  re.publish(c);
  EXPECT_FALSE(RoutingEpoch::installing(re.stamp()));
  EXPECT_EQ(re.current_epoch(), 1);
  EXPECT_EQ(re.current_shards(), 8);
}

TEST(RoutingEpochSpine, ShrinkAndSameSizeAreNoops) {
  RoutingEpoch re(8);
  RoutingEpoch::Claim c;
  EXPECT_EQ(re.try_begin(8, c), Status::kNoop);
  EXPECT_EQ(re.try_begin(4, c), Status::kNoop);
  EXPECT_EQ(re.current_epoch(), 0) << "noops must not consume an epoch";
  EXPECT_THROW(re.try_begin(12, c), PreconditionError);  // not a power of two
}

TEST(RoutingEpochSpine, PoisonIsPermanent) {
  RoutingEpoch re(2);
  RoutingEpoch::Claim c;
  ASSERT_EQ(re.try_begin(4, c), Status::kInstalled);
  re.poison(c);  // the migration "threw"
  RoutingEpoch::Claim later;
  EXPECT_EQ(re.try_begin(4, later), Status::kPoisoned);
  EXPECT_EQ(re.try_begin(8, later), Status::kPoisoned);
  // The published table keeps serving forever.
  EXPECT_EQ(re.current_epoch(), 0);
  EXPECT_EQ(re.current_shards(), 2);
}

TEST(RoutingEpochSpine, AbandonedClaimReportsInFlightForever) {
  RoutingEpoch re(2);
  RoutingEpoch::Claim dropped;
  ASSERT_EQ(re.try_begin(4, dropped), Status::kInstalled);
  // The claim winner disappears without publish() or poison(): the stamp
  // stays odd and every later resize fails closed.
  RoutingEpoch::Claim later;
  EXPECT_EQ(re.try_begin(4, later), Status::kInFlight);
  EXPECT_EQ(re.try_begin(8, later), Status::kInFlight);
  EXPECT_EQ(re.current_epoch(), 0);
  EXPECT_EQ(re.current_shards(), 2);
}

// --- C2Store resize end to end ----------------------------------------------

svc::C2StoreConfig small_config() {
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 8;
  cfg.max_threads = 4;
  cfg.max_value = 10;  // 4 * 10 <= 63
  cfg.tas_max_resets = 6;
  return cfg;
}

TEST(C2StoreResize, GrowsRoutingAndPreservesEveryFacet) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  // Keys collapse to shards (one object family per shard), so the expected
  // post-resize value of a key is its PRE-RESIZE shard's aggregate — which
  // the migration replays verbatim into the key's new slot.
  std::vector<int64_t> shard_max(8, 0), shard_cnt(8, 0), shard_tas(8, 0);
  std::vector<int> old_shard(64, 0);
  for (uint64_t k = 0; k < 64; ++k) {
    int sh = store.shard_of(k);
    old_shard[static_cast<size_t>(k)] = sh;
    s.max_write(k, static_cast<int64_t>(k % 7));
    s.counter_inc(k);
    auto& mx = shard_max[static_cast<size_t>(sh)];
    mx = std::max(mx, static_cast<int64_t>(k % 7));
    ++shard_cnt[static_cast<size_t>(sh)];
    if (k % 3 == 0) {
      s.tas(k).test_and_set();
      shard_tas[static_cast<size_t>(sh)] = 1;
    }
  }
  int64_t sum_before = s.counter_sum();
  int64_t gmax_before = s.global_max();

  EXPECT_EQ(store.shard_count(), 8);
  EXPECT_EQ(store.routing_epoch(), 0);
  ASSERT_EQ(store.resize(32), svc::ResizeStatus::kInstalled);
  EXPECT_EQ(store.shard_count(), 32);
  EXPECT_EQ(store.routing_epoch(), 1);

  // Every monotone facet survives the migration exactly (whether the key
  // stayed in its old slot or moved to a replayed one); the digests (which
  // never read routing state) are bit-identical.
  for (uint64_t k = 0; k < 64; ++k) {
    size_t sh = static_cast<size_t>(old_shard[static_cast<size_t>(k)]);
    EXPECT_EQ(s.max_read(k), shard_max[sh]) << "key " << k;
    EXPECT_EQ(s.counter_read(k), shard_cnt[sh]) << "key " << k;
    EXPECT_EQ(s.tas_read(k), shard_tas[sh]) << "key " << k;
  }
  EXPECT_EQ(s.counter_sum(), sum_before);
  EXPECT_EQ(s.global_max(), gmax_before);

  // And the grown table keeps working for fresh traffic.
  s.max_write(uint64_t{1000}, 9);
  EXPECT_EQ(s.max_read(uint64_t{1000}), 9);
}

TEST(C2StoreResize, CachedRefsRebindAfterEpochBump) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  // Bind typed refs BEFORE the resize — the ref-revalidation path must carry
  // them across the epoch bump without rebinding by hand.
  svc::MaxRef mx = s.max(uint64_t{7});
  svc::CounterRef ctr = s.counter(uint64_t{7});
  svc::TasRef tas = s.tas(uint64_t{7});
  mx.write(3);
  ctr.inc();

  ASSERT_EQ(s.resize(32), svc::ResizeStatus::kInstalled);

  // Stale refs keep answering correctly...
  EXPECT_EQ(mx.read(), 3);
  EXPECT_EQ(ctr.read(), 1);
  // ...and writes through them land where fresh routing looks.
  mx.write(5);
  ctr.inc();
  EXPECT_EQ(tas.test_and_set(), 0);
  svc::C2Session fresh = store.open_session();
  EXPECT_EQ(fresh.max_read(uint64_t{7}), 5);
  EXPECT_EQ(fresh.counter_read(uint64_t{7}), 2);
  EXPECT_EQ(fresh.tas_read(uint64_t{7}), 1);
}

TEST(C2StoreResize, UnmaterialisedKeysReadZeroAcrossResize) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  s.max_write(uint64_t{1}, 2);  // materialise exactly one shard
  const int touched_shard = store.shard_of(uint64_t{1});  // under the 8-mask
  int touched = store.initialized_shards();
  ASSERT_EQ(s.resize(64), svc::ResizeStatus::kInstalled);
  // Reads never materialise: keys whose (nested-mask) PARENT slot is not the
  // one materialised shard still answer 0 through the new routing table, and
  // the migration only initialised slots whose parent had state to move.
  for (uint64_t k = 100; k < 200; ++k) {
    if ((store.shard_of(k) & 7) == touched_shard) continue;  // collides
    EXPECT_EQ(s.max_read(k), 0) << "key " << k;
    EXPECT_EQ(s.counter_read(k), 0) << "key " << k;
    EXPECT_EQ(s.tas_read(k), 0) << "key " << k;
  }
  EXPECT_LE(store.initialized_shards(), touched * (64 / 8))
      << "migration may materialise at most every child of a materialised "
         "parent (growth factor many), never an untouched family";
  EXPECT_EQ(s.max_read(uint64_t{1}), 2);
}

TEST(C2StoreResize, AbandonedClaimKeepsServingAndFailsLaterResizes) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  s.max_write(uint64_t{3}, 4);

  // A resizer claims epoch 1 and dies: the stamp sticks at "installing".
  ASSERT_EQ(store.debug_abandon_resize(16), svc::ResizeStatus::kInstalled);

  // Data ops keep serving the published epoch — including keys never touched
  // before the abandoned claim (mid-"migration" materialisation still works).
  EXPECT_EQ(s.max_read(uint64_t{3}), 4);
  s.max_write(uint64_t{99}, 6);
  EXPECT_EQ(s.max_read(uint64_t{99}), 6);
  EXPECT_EQ(s.counter_read(uint64_t{12345}), 0);
  EXPECT_EQ(store.shard_count(), 8);
  EXPECT_EQ(store.routing_epoch(), 0);

  // But the control plane is wedged by contract: kInFlight forever.
  EXPECT_EQ(store.resize(16), svc::ResizeStatus::kInFlight);
  EXPECT_EQ(store.resize(64), svc::ResizeStatus::kInFlight);
}

TEST(C2StoreResize, NoopShrinkAndBadCountsRejected) {
  svc::C2Store store(small_config());
  EXPECT_EQ(store.resize(8), svc::ResizeStatus::kNoop);
  EXPECT_EQ(store.resize(4), svc::ResizeStatus::kNoop);
  EXPECT_THROW(store.resize(12), PreconditionError);
  EXPECT_EQ(store.shard_count(), 8);
}

TEST(C2StoreResize, SessionChurnAcrossResizes) {
  svc::C2Store store(small_config());
  for (int round = 0; round < 3; ++round) {
    {
      svc::C2Session s = store.open_session();
      s.counter_inc(uint64_t{42});
      // RAII close between rounds: lanes recycle across epochs.
    }
    svc::C2Session s = store.open_session();
    if (round < 2) {
      ASSERT_EQ(s.resize(store.shard_count() * 2), svc::ResizeStatus::kInstalled);
    }
    s.counter_inc(uint64_t{42});
  }
  svc::C2Session s = store.open_session();
  EXPECT_EQ(s.counter_read(uint64_t{42}), 6);
  EXPECT_EQ(store.shard_count(), 32);
  EXPECT_EQ(store.routing_epoch(), 2);
}

TEST(C2StoreResize, SnapshotsAndTransfersConserveAcrossResize) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  // One representative key per INITIAL shard — the snapshot facet is
  // bucketed under the initial mask forever, so these cover it before and
  // after any number of resizes.
  std::vector<uint64_t> keys;
  {
    std::vector<bool> covered(8, false);
    int remaining = 8;
    for (uint64_t k = 0; remaining > 0; ++k) {
      int slot = store.shard_of(k);
      if (!covered[static_cast<size_t>(slot)]) {
        covered[static_cast<size_t>(slot)] = true;
        keys.push_back(k);
        --remaining;
      }
    }
  }
  svc::SnapshotRef snap = s.snapshot_ref([&] {
    std::vector<svc::SnapKey> slots;
    for (uint64_t k : keys) slots.push_back(svc::SnapKey::counter(k));
    return slots;
  }());

  s.transfer(keys[0], keys[1], 5);
  std::vector<int64_t> before = snap.read();

  ASSERT_EQ(s.resize(32), svc::ResizeStatus::kInstalled);

  // The pre-resize SnapshotRef keeps reading (it never touches routing
  // state), sees the identical balances, and still conserves after more
  // transfers on the grown store.
  std::vector<int64_t> after = snap.read();
  EXPECT_EQ(after, before);
  s.transfer(keys[2], keys[3], 7);
  int64_t sum = 0;
  for (int64_t v : snap.read()) sum += v;
  EXPECT_EQ(sum, 0) << "transfers must conserve across the resize cut";
  // A fresh replay cursor agrees with the incremental one.
  int64_t fresh_sum = 0;
  for (int64_t v : s.snapshot_counters(keys)) fresh_sum += v;
  EXPECT_EQ(fresh_sum, 0);
}

TEST(C2StoreResize, TelemetryCountsClaimsPublishesAndMigratedKeys) {
  if (!tel::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  for (uint64_t k = 0; k < 32; ++k) s.counter_inc(k);
  // Cold-path events are process-wide — other tests in this binary resize
  // too, so assert on DELTAS around this store's resizes.
  tel::MetricsSnapshot before = store.metrics_snapshot();
  ASSERT_EQ(store.resize(16), svc::ResizeStatus::kInstalled);
  EXPECT_EQ(store.resize(16), svc::ResizeStatus::kNoop);
  (void)store.debug_abandon_resize(32);  // claim without publish

  tel::MetricsSnapshot m = store.metrics_snapshot();
  auto delta = [&](tel::TelEvent e) {
    return m.events[static_cast<int>(e)] - before.events[static_cast<int>(e)];
  };
  EXPECT_EQ(delta(tel::TelEvent::kResizeClaim), 2u)
      << "the real resize + the abandoned one";
  EXPECT_EQ(delta(tel::TelEvent::kEpochPublish), 1u)
      << "only the real resize published";
  EXPECT_LE(delta(tel::TelEvent::kEpochPublish),
            delta(tel::TelEvent::kResizeClaim))
      << "the invariant tools/metrics_diff.py gates";
  EXPECT_GE(delta(tel::TelEvent::kKeysMigrated), 1u)
      << "32 touched keys on 8 shards must move state";
}

}  // namespace
}  // namespace c2sl
