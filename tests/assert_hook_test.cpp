// The failure-hook contract (util/assert.h + telemetry/trace_export.h): a
// failing C2SL_ASSERT must ship each lane's witness-trace tail — its last
// records AND its pending one, the lane's last op — to stderr before
// aborting, and the hook slot must survive the install/uninstall races its
// comment promises to tolerate (last installer wins; a dying owner never
// clobbers a successor's registration).
//
// The death tests fork (gtest "fast" style — each test file is its own
// single-threaded binary here, so forking is safe) and match the child's
// stderr: the dump header, the lane line, and the recorded ops must all be
// present — and must be ABSENT once the owning store has been destroyed,
// proving ~C2Store really disarms the hook rather than leaving a dangling
// context behind for the next assert to chase.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "service/c2store.h"
#include "telemetry/trace_export.h"
#include "util/assert.h"

namespace c2sl {
namespace {

using ::testing::AllOf;
using ::testing::ContainsRegex;
using ::testing::HasSubstr;
using ::testing::Not;

#if C2SL_CAPTURE

svc::C2StoreConfig small_config() {
  svc::C2StoreConfig cfg;
  cfg.initial_shards = 4;
  cfg.max_threads = 4;
  cfg.max_value = 15;
  cfg.tas_max_resets = 14;
  return cfg;
}

TEST(AssertHookDeathTest, FailingAssertDumpsTheTraceTail) {
  EXPECT_DEATH(
      {
        svc::C2Store store(small_config());
        svc::C2Session s = store.open_session();
        svc::MaxRef mx = s.max(uint64_t{1});
        for (int i = 0; i < 3; ++i) mx.write(i);
        s.counter(uint64_t{2}).inc();
        C2SL_ASSERT(false && "deliberate: trace tail must ship with this");
      },
      AllOf(HasSubstr("c2sl assertion failed"),
            HasSubstr("c2sl trace tail"), HasSubstr("lane 0"),
            HasSubstr("session_open"), HasSubstr("max_write"),
            HasSubstr("counter_inc"), HasSubstr("(pending)")));
}

TEST(AssertHookDeathTest, DumpCarriesOpArguments) {
  // The record stores the written value; the dump must render it, not just
  // the op name — that is what makes a post-mortem actionable.
  EXPECT_DEATH(
      {
        svc::C2Store store(small_config());
        svc::C2Session s = store.open_session();
        s.max(uint64_t{1}).write(13);
        C2SL_ASSERT(false);
      },
      AllOf(HasSubstr("max_write"), HasSubstr("arg=13")));
}

TEST(AssertHookDeathTest, SnapshotAndTransferRideTheTraceTail) {
  // The snapshot surface is instrumented like every other session op: a
  // transfer records its amount, a snapshot records its key count. Both must
  // land in the post-mortem dump — a conservation-check C2SL_CHECK firing
  // under the transfer_audit workload is exactly when this dump is read.
  EXPECT_DEATH(
      {
        svc::C2Store store(small_config());
        svc::C2Session s = store.open_session();
        s.transfer(uint64_t{1}, uint64_t{2}, 5);
        s.snapshot_counters({uint64_t{1}, uint64_t{2}, uint64_t{3}});
        C2SL_ASSERT(false && "deliberate: snapshot ops must ship with this");
      },
      AllOf(HasSubstr("c2sl trace tail"), HasSubstr("transfer"),
            HasSubstr("arg=5"), HasSubstr("snapshot"), HasSubstr("arg=3")));
}

TEST(AssertHookDeathTest, DestroyedStoreDisarmsTheDump) {
  EXPECT_DEATH(
      {
        {
          svc::C2Store store(small_config());
          svc::C2Session s = store.open_session();
          s.max(uint64_t{1}).write(7);
        }  // ~C2Store runs clear_failure_hook
        C2SL_ASSERT(false && "no store alive: assert must not dump");
      },
      AllOf(HasSubstr("c2sl assertion failed"),
            Not(HasSubstr("c2sl trace tail"))));
}

TEST(AssertHookDeathTest, LastInstallerWinsAcrossTwoStores) {
  // Two live stores: the younger one owns the hook. Ops recorded on the
  // OLDER store's lanes must not appear (its trace is not the dump target),
  // while the younger store's ops must.
  EXPECT_DEATH(
      {
        svc::C2Store older(small_config());
        {
          svc::C2Session s = older.open_session();
          s.max(uint64_t{1}).write(1);
        }
        svc::C2Store younger(small_config());
        svc::C2Session s = younger.open_session();
        s.counter(uint64_t{9}).inc();
        C2SL_ASSERT(false);
      },
      AllOf(HasSubstr("c2sl trace tail"), HasSubstr("counter_inc"),
            Not(HasSubstr("max_write"))));
}

TEST(AssertHookDeathTest, TailCopiesOnlyTheLastRecordsThenThePendingOp) {
  // One open and 100 writes, then one inc: the inc's scope committed the
  // last write, so 101 records are published (#0..#100) and the inc is the
  // pending #101. The dump starts at #(101 - kTraceTail) = #37, in order,
  // and ends with the pending inc.
  static_assert(tel::kTraceTail == 64);
  EXPECT_DEATH(
      {
        svc::C2Store store(small_config());
        svc::C2Session s = store.open_session();
        svc::MaxRef mx = s.max(uint64_t{1});
        for (int i = 0; i < 100; ++i) mx.write(i % 15);
        s.counter(uint64_t{2}).inc();
        C2SL_ASSERT(false);
      },
      AllOf(HasSubstr("lane 0 (101 records, 0 dropped)"),
            Not(HasSubstr("#36 ")),
            ContainsRegex("#37 max_write[^\n]*\n    #38 max_write"),
            ContainsRegex("#100 max_write[^\n]*\n    #101 counter_inc"
                          "[^\n]*\\(pending\\)")));
}

#endif  // C2SL_CAPTURE

// --- hook slot semantics (no forking needed) --------------------------------

void hook_a(void*) {}
void hook_b(void*) {}

struct SlotGuard {  // leave the process-wide slot clean for other tests
  ~SlotGuard() {
    failure_hook().fn.store(nullptr, std::memory_order_relaxed);
    failure_hook().ctx.store(nullptr, std::memory_order_relaxed);
  }
};

TEST(FailureHookSlot, SetPublishesFnAndCtx) {
  SlotGuard guard;
  int ctx = 0;
  set_failure_hook(&hook_a, &ctx);
  EXPECT_EQ(failure_hook().fn.load(std::memory_order_acquire), &hook_a);
  EXPECT_EQ(failure_hook().ctx.load(std::memory_order_relaxed), &ctx);
}

TEST(FailureHookSlot, ClearOnlyWhenCtxMatches) {
  SlotGuard guard;
  int mine = 0, other = 0;
  set_failure_hook(&hook_a, &mine);
  clear_failure_hook(&other);  // wrong owner: must be a no-op
  EXPECT_EQ(failure_hook().fn.load(std::memory_order_acquire), &hook_a);
  clear_failure_hook(&mine);
  EXPECT_EQ(failure_hook().fn.load(std::memory_order_acquire), nullptr);
  EXPECT_EQ(failure_hook().ctx.load(std::memory_order_relaxed), nullptr);
}

TEST(FailureHookSlot, DyingOwnerNeverClobbersSuccessor) {
  SlotGuard guard;
  int first = 0, second = 0;
  set_failure_hook(&hook_a, &first);
  set_failure_hook(&hook_b, &second);  // last installer wins
  clear_failure_hook(&first);          // first owner dies late
  EXPECT_EQ(failure_hook().fn.load(std::memory_order_acquire), &hook_b);
  EXPECT_EQ(failure_hook().ctx.load(std::memory_order_relaxed), &second);
}

}  // namespace
}  // namespace c2sl
