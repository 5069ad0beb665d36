// Functional tests for the multi-key snapshot surface of the service layer:
// C2Session::snapshot / snapshot_ref / snapshot_counters / transfer over the
// write journal (runtime/keyed_version_digest.h). The concurrency story is
// checker-verified in tests/snapshot_sim_test.cpp and stress-tested in
// tests/snapshot_stress_test.cpp; this file pins the sequential semantics:
// the quiescent identities against the per-key reads, the conservation of
// transfers, cursor reuse across repeated snapshots, and the edge cases
// (empty key list, duplicate keys, unknown keys, session close/reopen).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "service/c2store.h"

namespace c2sl {
namespace {

svc::C2StoreConfig small_config() {
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 8;
  cfg.max_threads = 4;
  cfg.max_value = 10;  // 4 * 10 <= 63
  cfg.tas_max_resets = 6;
  return cfg;
}

// --- quiescent identities ---------------------------------------------------

// With no transfers in the journal, a counter key's snapshot component IS the
// per-key counter read, and a max key's component IS the per-key max read.
TEST(Snapshot, QuiescentIdentityAgainstPerKeyReads) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  uint64_t a = 100, b = 101;
  while (store.shard_of(b) == store.shard_of(a)) ++b;  // two distinct shards
  for (int i = 0; i < 7; ++i) s.counter(a).inc();
  for (int i = 0; i < 3; ++i) s.counter(b).inc();
  s.max(a).write(5);
  s.max(b).write(9);
  std::vector<int64_t> view = s.snapshot({svc::SnapKey::counter(a),
                                          svc::SnapKey::counter(b),
                                          svc::SnapKey::max(a),
                                          svc::SnapKey::max(b)});
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[0], s.counter_read(a));
  EXPECT_EQ(view[1], s.counter_read(b));
  EXPECT_EQ(view[2], s.max_read(a));
  EXPECT_EQ(view[3], s.max_read(b));
  EXPECT_EQ(view[0], 7);
  EXPECT_EQ(view[1], 3);
  EXPECT_EQ(view[2], 5);
  EXPECT_EQ(view[3], 9);
}

// Transfers exist only on the snapshot facet (the Thm 9 counter is inc-only):
// they shift the ledger balances the snapshot reports, conserve their sum,
// and leave the per-key counter reads untouched.
TEST(Snapshot, TransfersMoveLedgerBalanceAndConserveTheSum) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  uint64_t a = 100, b = 101;
  while (store.shard_of(b) == store.shard_of(a)) ++b;
  for (int i = 0; i < 4; ++i) s.counter(a).inc();
  for (int i = 0; i < 2; ++i) s.counter(b).inc();
  s.transfer(a, b, 3);
  std::vector<int64_t> view = s.snapshot_counters({a, b});
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 4 - 3) << "debit side: incs + net transfers";
  EXPECT_EQ(view[1], 2 + 3) << "credit side: incs + net transfers";
  EXPECT_EQ(view[0] + view[1], 6) << "transfers conserve the total";
  EXPECT_EQ(s.counter_read(a), 4) << "the inc-only counter never sees transfers";
  EXPECT_EQ(s.counter_read(b), 2);
  // Balances may go negative; a negative amount transfers the other way.
  s.transfer(a, b, 5);
  view = s.snapshot_counters({a, b});
  EXPECT_EQ(view[0], -4);
  EXPECT_EQ(view[1], 10);
  s.transfer(a, b, -9);
  view = s.snapshot_counters({a, b});
  EXPECT_EQ(view[0], 5);
  EXPECT_EQ(view[1], 1);
}

TEST(Snapshot, StringKeysTransferLikeIntKeys) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  // Two string keys on distinct shards (names may collide on 8 shards).
  const std::string alice = "alice";
  std::string bob = "bob0";
  for (int i = 0; store.shard_of(std::string_view(bob)) ==
                  store.shard_of(std::string_view(alice));
       ++i) {
    bob = "bob" + std::to_string(i);
  }
  s.counter(alice).inc();
  s.counter(alice).inc();
  s.transfer(std::string_view(alice), std::string_view(bob), 1);
  // Route the string keys through integer-keyed shard representatives: keys
  // collapse to shards, so any key on the same shard reads the balance.
  uint64_t ka = 0;
  while (store.shard_of(ka) != store.shard_of(std::string_view(alice))) ++ka;
  uint64_t kb = 0;
  while (store.shard_of(kb) != store.shard_of(std::string_view(bob))) ++kb;
  std::vector<int64_t> balances = s.snapshot_counters({ka, kb});
  EXPECT_EQ(balances[0], 1);
  EXPECT_EQ(balances[1], 1);
}

// Keys collapse to shards exactly like the typed refs: colliding keys name
// the same snapshot component, and duplicates in one key list are allowed
// (each slot reports the same shard value).
TEST(Snapshot, DuplicateAndCollidingKeysShareTheComponent) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  uint64_t a = 0, b = 1;
  while (store.shard_of(b) != store.shard_of(a)) ++b;  // same shard
  for (int i = 0; i < 3; ++i) s.counter(a).inc();
  std::vector<int64_t> view = s.snapshot({svc::SnapKey::counter(a),
                                          svc::SnapKey::counter(a),
                                          svc::SnapKey::counter(b)});
  EXPECT_EQ(view, (std::vector<int64_t>{3, 3, 3}));
}

// --- cursor reuse and the reusable ref ---------------------------------------

TEST(Snapshot, SnapshotRefReplaysIncrementally) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  uint64_t a = 100, b = 101;
  while (store.shard_of(b) == store.shard_of(a)) ++b;
  svc::SnapshotRef ref =
      s.snapshot_ref({svc::SnapKey::counter(a), svc::SnapKey::counter(b)});
  EXPECT_EQ(ref.size(), 2);
  EXPECT_EQ(ref.read(), (std::vector<int64_t>{0, 0}));
  s.counter(a).inc();
  EXPECT_EQ(ref.read(), (std::vector<int64_t>{1, 0}));
  s.counter(b).inc();
  s.transfer(a, b, 1);
  EXPECT_EQ(ref.read(), (std::vector<int64_t>{0, 2}));
  // Re-reading a quiescent journal replays nothing and changes nothing.
  EXPECT_EQ(ref.read(), (std::vector<int64_t>{0, 2}));
  // A second ref over different kinds shares the session's replay state.
  svc::SnapshotRef mref = s.snapshot_ref({svc::SnapKey::max(a)});
  s.max(a).write(4);
  EXPECT_EQ(mref.read(), (std::vector<int64_t>{4}));
  EXPECT_EQ(ref.read(), (std::vector<int64_t>{0, 2}));
}

TEST(Snapshot, JournalTicketsCountKeyedWrites) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  EXPECT_EQ(store.journal_tickets(), 0);
  s.counter(uint64_t{1}).inc();       // 1 entry
  s.max(uint64_t{2}).write(7);        // 1 entry
  s.transfer(uint64_t{1}, uint64_t{3}, 2);  // 1 entry
  s.counter_read(uint64_t{1});        // reads never journal
  s.snapshot_counters({uint64_t{1}});
  EXPECT_EQ(store.journal_tickets(), 3);
}

// A transfer whose amount does not fit the journal cell draws two tickets in
// its one FAA; snapshots replay it exactly, from a fresh cursor or from one
// left just past it, and every bucket's balance still sums to the incs.
TEST(Snapshot, WideTransfersTakeTwoTicketsAndReplayExactly) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  // One representative key per bucket, so a snapshot sees every balance.
  std::vector<uint64_t> reps(static_cast<size_t>(store.shard_count()));
  std::vector<bool> seen(reps.size(), false);
  for (uint64_t k = 0, found = 0; found < reps.size(); ++k) {
    auto sh = static_cast<size_t>(store.shard_of(k));
    if (!seen[sh]) {
      seen[sh] = true;
      reps[sh] = k;
      ++found;
    }
  }
  auto sum = [](const std::vector<int64_t>& v) {
    int64_t t = 0;
    for (int64_t x : v) t += x;
    return t;
  };
  // The amount cell of 2^40 + 1 reads as an inc if taken for an entry, so a
  // replay that stepped into it would count a phantom inc.
  const int64_t big = (int64_t{1} << 40) + 1;
  EXPECT_EQ(s.transfer(reps[0], reps[1], big), 0);
  EXPECT_EQ(store.journal_tickets(), 2);
  std::vector<int64_t> view = s.snapshot_counters(reps);
  EXPECT_EQ(view[0], -big);
  EXPECT_EQ(view[1], big);
  EXPECT_EQ(sum(view), 0);
  EXPECT_EQ(s.transfer(reps[0], reps[1], -4097), 2);
  EXPECT_EQ(s.transfer(reps[0], reps[1], 4095), 4) << "inline: one ticket";
  s.counter(reps[0]).inc();
  EXPECT_EQ(store.journal_tickets(), 6);
  view = s.snapshot_counters(reps);  // cursor resumes at ticket 2
  EXPECT_EQ(view[0], -big + 4097 - 4095 + 1);
  EXPECT_EQ(view[1], big - 4097 + 4095);
  EXPECT_EQ(sum(view), 1);
  svc::C2Session fresh = store.open_session();
  EXPECT_EQ(fresh.snapshot_counters(reps), view) << "replay from ticket 0";
}

// --- edge cases ---------------------------------------------------------------

TEST(Snapshot, EmptyKeyListYieldsEmptyVector) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  EXPECT_TRUE(s.snapshot({}).empty());
  svc::SnapshotRef ref = s.snapshot_ref({});
  EXPECT_EQ(ref.size(), 0);
  EXPECT_TRUE(ref.read().empty());
}

// Snapshots and transfers ride the journal only — they must never materialise
// shards (same contract as the aggregate digest reads).
TEST(Snapshot, NeverMaterialisesShards) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  EXPECT_EQ(store.initialized_shards(), 0);
  std::vector<int64_t> view =
      s.snapshot({svc::SnapKey::counter(uint64_t{7}), svc::SnapKey::max(uint64_t{9})});
  EXPECT_EQ(view, (std::vector<int64_t>{0, 0})) << "unknown keys read as zero";
  s.transfer(uint64_t{7}, uint64_t{9}, 5);
  EXPECT_EQ(s.snapshot_counters({uint64_t{7}}).front(), -5);
  EXPECT_EQ(store.initialized_shards(), 0)
      << "snapshot/transfer must not materialise shards";
  // A keyed write then lands on exactly one shard, as usual.
  s.counter(uint64_t{7}).inc();
  EXPECT_EQ(store.initialized_shards(), 1);
}

TEST(Snapshot, ClosedSessionRejectsSnapshotAndTransfer) {
  svc::C2Store store(small_config());
  svc::C2Session s = store.open_session();
  s.close();
  EXPECT_THROW(s.snapshot({svc::SnapKey::counter(uint64_t{1})}), PreconditionError);
  EXPECT_THROW(s.snapshot_ref({}), PreconditionError);
  EXPECT_THROW(s.transfer(uint64_t{1}, uint64_t{2}, 1), PreconditionError);
}

// Session close/reopen with lane recycling: the journal is store-global, so a
// fresh session (cursor 0) replays everything prior sessions wrote; its first
// snapshot sees the full history no matter which lane it was handed. One
// lane, so the reopen gets the closed session's lane back.
TEST(Snapshot, SurvivesSessionCloseReopen) {
  svc::C2StoreConfig cfg = small_config();
  cfg.max_threads = 1;
  svc::C2Store store(cfg);
  uint64_t a = 100, b = 101;
  while (store.shard_of(b) == store.shard_of(a)) ++b;
  int first_lane;
  {
    svc::C2Session s = store.open_session();
    first_lane = s.lane();
    for (int i = 0; i < 5; ++i) s.counter(a).inc();
    s.transfer(a, b, 2);
    EXPECT_EQ(s.snapshot_counters({a, b}), (std::vector<int64_t>{3, 2}));
  }  // RAII close: replay state dies with the session, the journal persists
  {
    svc::C2Session s = store.open_session();
    EXPECT_EQ(s.lane(), first_lane) << "the only lane must be recycled";
    EXPECT_EQ(s.snapshot_counters({a, b}), (std::vector<int64_t>{3, 2}))
        << "a recycled lane's fresh session replays the whole journal";
    s.counter(b).inc();
    EXPECT_EQ(s.snapshot_counters({a, b}), (std::vector<int64_t>{3, 3}));
  }
}

// A moved-from session hands its replay state to the destination; the
// destination's next snapshot continues from the moved cursor.
TEST(Snapshot, MoveCarriesTheReplayState) {
  svc::C2Store store(small_config());
  svc::C2Session a = store.open_session();
  uint64_t k = 42;
  a.counter(k).inc();
  EXPECT_EQ(a.snapshot_counters({k}).front(), 1);
  svc::C2Session b = std::move(a);
  a.close();  // idempotent on the moved-from shell
  EXPECT_EQ(b.snapshot_counters({k}).front(), 1);
  b.counter(k).inc();
  EXPECT_EQ(b.snapshot_counters({k}).front(), 2);
}

// Snapshots from concurrent sessions agree at quiescence: the journal is one
// global order, each session merely keeps its own replay cursor.
TEST(Snapshot, SessionsAgreeAtQuiescence) {
  svc::C2Store store(small_config());
  svc::C2Session s0 = store.open_session();
  svc::C2Session s1 = store.open_session();
  uint64_t a = 100, b = 101;
  while (store.shard_of(b) == store.shard_of(a)) ++b;
  s0.counter(a).inc();
  s1.counter(b).inc();
  s0.transfer(a, b, 1);
  std::vector<int64_t> v0 = s0.snapshot_counters({a, b});
  std::vector<int64_t> v1 = s1.snapshot_counters({a, b});
  EXPECT_EQ(v0, v1);
  EXPECT_EQ(v0, (std::vector<int64_t>{0, 2}));
}

}  // namespace
}  // namespace c2sl
