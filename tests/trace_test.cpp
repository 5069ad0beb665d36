// Linearization-witness tracing, native verification (tools/trace_audit.py
// carries the offline order proofs; this suite pins the CAPTURE layer):
//
//  1. LAYOUT: a lane slot is 32 bytes and round-trips its packed fields, the
//     decoded record is one 64-byte cache line, and a scope writes exactly
//     what its setters staged, once, at destruction.
//  2. DECODE: sampled ticks only widen intervals — each decoded [t0, t1]
//     contains the op's true interval, point events stay points, and two ops
//     with a stamped op between them keep their real-time precedence.
//  3. OVERFLOW accounting: past LaneTrace::kCap appends never block and never
//     tear — each dropped op is counted, published stays pinned at the cap,
//     and the drain reports both (the auditor refuses lossy traces, so a
//     dropped record can never silently pass an audit).
//  4. DRAIN-WHILE-WRITING: a concurrent drain — decoded or a raw tail — sees
//     only fully-written slots (SPSC release/acquire publication; the TSAN
//     job runs this test to certify the claimed data-race freedom).
//  5. WITNESS plumbing on a live C2Store: every journal-facet op carries a
//     witness, witnesses are strictly increasing per lane in program order
//     (strong linearizability's own-step property made visible), reads stay
//     deliberately unwitnessed, transfers carry both buckets and their own
//     ticket, epochs are lane events emitted once per change, and the
//     exporter emits the documented c2sl-trace-v1 shape.
//
// Everything but the flavour-independent layout checks needs the live layer,
// so a C2SL_CAPTURE=0 build compiles it out (tests/trace_off_test.cpp
// covers that flavour).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/c2store.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace c2sl {
namespace {

// --- 1. layout ---------------------------------------------------------------

TEST(TraceRecordTest, OneCacheLinePlainLayout) {
  static_assert(sizeof(tel::TraceRecord) == 64);
  static_assert(std::is_trivially_copyable_v<tel::TraceRecord>);
  tel::TraceRecord r;
  EXPECT_EQ(r.key, -1);
  EXPECT_EQ(r.key_b, -1);
  EXPECT_EQ(r.witness, -1);
  EXPECT_EQ(r.epoch, -1);
}

TEST(TraceSlotTest, ThirtyTwoBytesWithPackedOpAndKeyB) {
  static_assert(sizeof(tel::TraceSlot) == 32);
  static_assert(std::is_trivially_copyable_v<tel::TraceSlot>);
  static_assert(tel::TraceSlot::kMaxKeyB == (int32_t{1} << 24) - 1);
  const uint32_t ops[] = {0, tel::kTraceOpCount - 1, tel::TraceSlot::kEpoch,
                          tel::TraceSlot::kTick};
  for (uint32_t op : ops) {
    for (int32_t b : {-1, 0, tel::TraceSlot::kMaxKeyB}) {
      tel::TraceSlot s;
      s.head = tel::TraceSlot::pack(op, b);
      EXPECT_EQ(s.op(), op);
      EXPECT_EQ(s.key_b(), b);
    }
  }
}

TEST(TraceScopeTest, NullLaneIsInert) {
  tel::TraceScope tr(nullptr, tel::TraceOp::kMaxRead, 0, 0);
  tr.set_result(5);  // must not crash; there is nowhere to write
  tr.set_witness(5);
}

#if C2SL_CAPTURE

TEST(TraceScopeTest, CommitsExactlyWhatTheSettersStaged) {
  tel::StoreTrace trace;
  tel::LaneTrace* lt = trace.lane(0);
  {
    tel::TraceScope tr(lt, tel::TraceOp::kTransfer, /*key=*/3, /*arg=*/40);
    tr.set_key_b(11);
    tr.set_result(7);
    tr.set_witness(7);
    EXPECT_EQ(lt->published(), 0u)
        << "the scope writes its slot once, at destruction";
  }
  // The lane's first op is stamped: its tick slot, then its own.
  EXPECT_EQ(lt->published(), 2u);
  {
    tel::TraceScope tr(lt, tel::TraceOp::kCounterInc, /*key=*/5, /*arg=*/1);
    tr.set_witness(8);
    tr.set_epoch(2);
  }
  // No tick (one op in kTickPeriod is stamped), one epoch change.
  EXPECT_EQ(lt->published(), 4u);
  tel::LaneTraceDump ld;
  lt->drain_into(ld);
  ASSERT_EQ(ld.records.size(), 2u);
  const tel::TraceRecord& r = ld.records[0];
  EXPECT_EQ(r.op, static_cast<int32_t>(tel::TraceOp::kTransfer));
  EXPECT_EQ(r.key, 3);
  EXPECT_EQ(r.key_b, 11);
  EXPECT_EQ(r.arg, 40);
  EXPECT_EQ(r.result, 7);
  EXPECT_EQ(r.witness, 7);
  EXPECT_EQ(r.epoch, -1) << "transfers carry no epoch";
  EXPECT_GE(r.t1, r.t0);
  const tel::TraceRecord& inc = ld.records[1];
  EXPECT_EQ(inc.op, static_cast<int32_t>(tel::TraceOp::kCounterInc));
  EXPECT_EQ(inc.key_b, -1);
  EXPECT_EQ(inc.witness, 8);
  EXPECT_EQ(inc.epoch, 2) << "the lane's epoch event decodes into the record";
  EXPECT_EQ(inc.t0, r.t0) << "unstamped: the lane's last tick is its bound";
}

TEST(TraceScopeTest, KeysRoundTripThroughTheSlot) {
  tel::StoreTrace trace;
  tel::LaneTrace* lt = trace.lane(0);
  const int64_t keys[] = {-1, 0, INT32_MAX};
  const int32_t keys_b[] = {-1, 0, tel::TraceSlot::kMaxKeyB};
  for (int64_t key : keys) {
    for (int32_t b : keys_b) {
      tel::TraceScope tr(lt, tel::TraceOp::kTransfer, key, /*arg=*/1);
      tr.set_key_b(b);
    }
  }
  tel::LaneTraceDump ld;
  lt->drain_into(ld);
  ASSERT_EQ(ld.records.size(), 9u);
  for (size_t i = 0; i < ld.records.size(); ++i) {
    EXPECT_EQ(ld.records[i].key, keys[i / 3]);
    EXPECT_EQ(ld.records[i].key_b, keys_b[i % 3]);
  }
}

// --- 2. decode: sampled ticks only widen intervals ---------------------------

TEST(LaneTraceTest, DecodedIntervalsContainTheTrueOnes) {
  tel::StoreTrace trace;
  tel::LaneTrace* lt = trace.lane(0);
  constexpr int kK = tel::LaneTrace::kTickPeriod;
  constexpr int kOps = 3 * kK + 5;
  std::vector<int64_t> invoke, response;
  for (int i = 0; i < kOps; ++i) {
    if (i == kOps / 2) {  // a point event mid-stream stamps a tick of its own
      trace.record_event(lt, tel::TraceOp::kSessionOpen, -1, 0, 0, -1, -1);
    }
    tel::TraceScope tr(lt, tel::TraceOp::kCounterRead, /*key=*/1, /*arg=*/0);
    invoke.push_back(tel::trace_now());  // after the scope's invoke
    tr.set_result(i);
    response.push_back(tel::trace_now());  // before its response
  }
  tel::LaneTraceDump ld;
  lt->drain_into(ld);
  ASSERT_EQ(ld.records.size(), static_cast<size_t>(kOps) + 1);
  std::vector<tel::TraceRecord> ops;
  for (const tel::TraceRecord& r : ld.records) {
    if (r.op == static_cast<int32_t>(tel::TraceOp::kSessionOpen)) {
      EXPECT_EQ(r.t0, r.t1) << "point events stay points";
    } else {
      ops.push_back(r);
    }
  }
  ASSERT_EQ(ops.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(ops[i].result, i);
    EXPECT_LE(ops[i].t0, invoke[i]) << "op " << i;
    EXPECT_GE(ops[i].t1, response[i]) << "op " << i;
  }
  // Among any kK consecutive ops one is stamped, so ops i and i + kK + 1
  // have a tick between them: a's response bound is no later than it, b's
  // invoke bound no earlier, and the precedence stays witnessed.
  for (int i = 0, j = kK + 1; j < kOps; ++i, ++j) {
    EXPECT_LE(ops[i].t1, ops[j].t0) << "ops " << i << " and " << j;
  }
}

// --- 3. overflow drop accounting ---------------------------------------------

TEST(LaneTraceTest, OverflowDropsWithCountNeverBlocks) {
  tel::StoreTrace trace;
  tel::LaneTrace* lt = trace.lane(0);
  constexpr uint64_t kExtra = 7;
  // Each point event takes two slots (its tick, then itself).
  uint64_t events = 0;
  while (lt->dropped() < kExtra) {
    trace.record_event(lt, tel::TraceOp::kCounterRead, /*key=*/1, /*arg=*/0,
                       /*result=*/static_cast<int64_t>(events++),
                       /*witness=*/-1, /*epoch=*/-1);
  }
  static_assert(tel::LaneTrace::kCap % 2 == 0);
  EXPECT_EQ(lt->published(), tel::LaneTrace::kCap);
  EXPECT_EQ(events, tel::LaneTrace::kCap / 2 + kExtra);
  tel::LaneTraceDump ld;
  lt->drain_into(ld);
  EXPECT_EQ(ld.records.size(), tel::LaneTrace::kCap / 2);
  EXPECT_EQ(ld.dropped, kExtra);
  // The retained prefix is the FIRST records, untorn.
  EXPECT_EQ(ld.records.front().result, 0);
  EXPECT_EQ(ld.records.back().result,
            static_cast<int64_t>(tel::LaneTrace::kCap / 2) - 1);

  // The store-level dump carries the drop through to the exporters.
  tel::TraceDump d = trace.dump(/*max_lanes=*/1, /*initial_shards=*/16);
  ASSERT_EQ(d.lanes.size(), 1u);
  EXPECT_EQ(d.lanes[0].dropped, kExtra);
  std::string json = tel::trace_to_json(d, "trace_test");
  EXPECT_NE(json.find("\"dropped_total\":7"), std::string::npos);
}

// --- 4. drain while writing (the TSAN certificate) ---------------------------

TEST(LaneTraceTest, ConcurrentDrainSeesOnlyPublishedRecords) {
  tel::StoreTrace trace;
  tel::LaneTrace* lt = trace.lane(0);
  constexpr int64_t kWrites = 20000;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int64_t i = 0; i < kWrites; ++i) {
      tel::TraceScope tr(lt, tel::TraceOp::kCounterInc, /*key=*/2, /*arg=*/1);
      tr.set_witness(i);
      tr.set_result(i);
    }  // each scope publishes at destruction: nothing left to flush
    done.store(true, std::memory_order_release);
  });

  size_t last_seen = 0;
  while (!done.load(std::memory_order_acquire)) {
    tel::LaneTraceDump ld;
    lt->drain_into(ld);
    ASSERT_GE(ld.records.size(), last_seen) << "published count went backwards";
    last_seen = ld.records.size();
    for (size_t i = 0; i < ld.records.size(); ++i) {
      // Every drained record is fully formed: the witness staged before the
      // release-publish is visible, in order.
      ASSERT_EQ(ld.records[i].witness, static_cast<int64_t>(i));
      ASSERT_GE(ld.records[i].t1, ld.records[i].t0);
    }
    // The post-mortem read: a raw tail starts at the right index and holds
    // consecutive ops between its tick slots.
    std::vector<tel::TraceSlot> tail;
    uint64_t first = lt->copy_slots(tail, /*tail=*/8);
    ASSERT_LE(tail.size(), 8u);
    ASSERT_LE(first + tail.size(), lt->published());
    int64_t prev = -1;
    for (const tel::TraceSlot& s : tail) {
      if (s.op() == tel::TraceSlot::kTick) continue;
      ASSERT_EQ(s.op(), static_cast<uint32_t>(tel::TraceOp::kCounterInc));
      ASSERT_EQ(s.result, s.witness);
      if (prev >= 0) {
        ASSERT_EQ(s.witness, prev + 1);
      }
      prev = s.witness;
    }
  }
  writer.join();
  constexpr int64_t kTicks =
      (kWrites + tel::LaneTrace::kTickPeriod - 1) / tel::LaneTrace::kTickPeriod;
  EXPECT_EQ(lt->published(), static_cast<uint64_t>(kWrites + kTicks))
      << "one tick slot per kTickPeriod ops, the first op included";
  EXPECT_EQ(lt->dropped(), 0u);
  tel::LaneTraceDump ld;
  lt->drain_into(ld);
  EXPECT_EQ(ld.records.size(), static_cast<size_t>(kWrites));
}

/// The epoch slots of lane 0, in order.
std::vector<int64_t> epoch_events(const svc::C2Store& store) {
  std::vector<tel::TraceSlot> slots;
  store.trace().peek_lane(0)->copy_slots(slots);
  std::vector<int64_t> epochs;
  for (const tel::TraceSlot& s : slots) {
    if (s.op() == tel::TraceSlot::kEpoch) epochs.push_back(s.arg);
  }
  return epochs;
}

// --- 5. witness plumbing on a live store -------------------------------------

struct StoreTraceFixture {
  svc::C2StoreConfig cfg;
  StoreTraceFixture() {
    cfg.initial_shards = 4;
    cfg.max_threads = 4;
  }
};

TEST(StoreTraceTest, JournalOpsCarryStrictlyIncreasingWitnessesPerLane) {
  StoreTraceFixture f;
  svc::C2Store store(f.cfg);
  int64_t resize_epoch = -1;
  {
    svc::C2Session s = store.open_session();
    svc::CounterRef c = s.counter(uint64_t{1});
    svc::MaxRef m = s.max(uint64_t{2});
    // Eight rounds under epoch 0, a resize on this lane, eight rounds after.
    for (int i = 0; i < 16; ++i) {
      if (i == 8) {
        ASSERT_EQ(s.resize(8), svc::ResizeStatus::kInstalled);
      }
      c.inc();
      m.write(i / 2);  // within the fixture's max_value
      c.read();  // unwitnessed read between journal ops
      m.read();
    }
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  ASSERT_TRUE(d.enabled);
  ASSERT_EQ(d.lanes.size(), 1u);
  int64_t prev_witness = -1;
  int journal_ops = 0;
  for (const tel::TraceRecord& r : d.lanes[0].records) {
    auto op = static_cast<tel::TraceOp>(r.op);
    if (op == tel::TraceOp::kResize) {
      resize_epoch = r.epoch;
      EXPECT_GT(r.witness, prev_witness) << "the resize marker's ticket";
      prev_witness = r.witness;
    } else if (op == tel::TraceOp::kCounterInc ||
               op == tel::TraceOp::kMaxWrite) {
      EXPECT_GE(r.witness, 0) << "journal op without a witness";
      EXPECT_GT(r.witness, prev_witness)
          << "per-lane witness order must be strict: program order on one "
             "lane IS real-time order";
      prev_witness = r.witness;
      // Writes before the resize decode epoch 0, the ones after it the
      // epoch the resize published.
      EXPECT_EQ(r.epoch, journal_ops < 16 ? 0 : resize_epoch);
      ++journal_ops;
    } else if (op == tel::TraceOp::kCounterRead ||
               op == tel::TraceOp::kMaxRead) {
      EXPECT_EQ(r.witness, -1) << "plain reads are deliberately unwitnessed";
      EXPECT_EQ(r.epoch, -1) << "reads carry no epoch";
    }
  }
  EXPECT_GT(resize_epoch, 0);
  EXPECT_EQ(journal_ops, 32);
  // The journal issued exactly the tickets the trace shows: 0..32 dense, the
  // resize marker's among them.
  EXPECT_EQ(prev_witness, 32);
  // One epoch event per change: 0 at the first write, then the resize's.
  EXPECT_EQ(epoch_events(store), (std::vector<int64_t>{0, resize_epoch}));
}

TEST(StoreTraceTest, TransfersCarryBothBucketsAndTheirOwnTicket) {
  StoreTraceFixture f;
  svc::C2Store store(f.cfg);
  {
    svc::C2Session s = store.open_session();
    svc::CounterRef c = s.counter(uint64_t{5});
    c.inc();
    c.inc();
    int64_t ticket = s.transfer(uint64_t{5}, uint64_t{9}, 2);
    EXPECT_GE(ticket, 0);
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  ASSERT_EQ(d.lanes.size(), 1u);
  bool saw_transfer = false;
  for (const tel::TraceRecord& r : d.lanes[0].records) {
    if (static_cast<tel::TraceOp>(r.op) != tel::TraceOp::kTransfer) continue;
    saw_transfer = true;
    EXPECT_GE(r.key, 0);    // debit bucket
    EXPECT_GE(r.key_b, 0);  // credit bucket
    EXPECT_EQ(r.arg, 2);
    EXPECT_EQ(r.result, r.witness) << "the returned receipt IS the witness";
  }
  EXPECT_TRUE(saw_transfer);
}

TEST(StoreTraceTest, SnapshotWitnessIsTheJournalTail) {
  StoreTraceFixture f;
  svc::C2Store store(f.cfg);
  {
    svc::C2Session s = store.open_session();
    svc::CounterRef c = s.counter(uint64_t{3});
    c.inc();
    c.inc();
    c.inc();
    std::vector<int64_t> vals =
        s.snapshot({svc::SnapKey::counter(3), svc::SnapKey::counter(4)});
    EXPECT_EQ(vals[0], 3);
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  ASSERT_EQ(d.lanes.size(), 1u);
  bool saw_snapshot = false;
  for (const tel::TraceRecord& r : d.lanes[0].records) {
    if (static_cast<tel::TraceOp>(r.op) != tel::TraceOp::kSnapshot) continue;
    saw_snapshot = true;
    EXPECT_EQ(r.witness, 3) << "tail after three journaled incs";
    EXPECT_EQ(r.result, 3) << "total journaled incs below the tail";
    EXPECT_EQ(r.arg, 2) << "component count";
  }
  EXPECT_TRUE(saw_snapshot);
}

TEST(StoreTraceTest, SessionLifecycleAndResizeAreTracedAsEvents) {
  StoreTraceFixture f;
  svc::C2Store store(f.cfg);
  {
    svc::C2Session s = store.open_session();
    svc::CounterRef c = s.counter(uint64_t{1});
    c.inc();
    c.inc();
    EXPECT_EQ(s.resize(8), svc::ResizeStatus::kInstalled);
    c.inc();
    c.inc();
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  ASSERT_EQ(d.lanes.size(), 1u);
  int opens = 0, closes = 0, resizes = 0;
  int64_t epoch = 0;  // the epoch the next inc must decode
  for (const tel::TraceRecord& r : d.lanes[0].records) {
    switch (static_cast<tel::TraceOp>(r.op)) {
      case tel::TraceOp::kSessionOpen:
        ++opens;
        EXPECT_EQ(r.t0, r.t1) << "lifecycle records are point events";
        break;
      case tel::TraceOp::kSessionClose:
        ++closes;
        EXPECT_EQ(r.t0, r.t1) << "lifecycle records are point events";
        break;
      case tel::TraceOp::kResize:
        ++resizes;
        EXPECT_EQ(r.t0, r.t1) << "a resize is a point event";
        EXPECT_EQ(r.arg, 8) << "new shard count";
        EXPECT_GE(r.witness, 0) << "the kResize journal marker is the witness";
        EXPECT_GT(r.epoch, 0) << "the freshly published epoch";
        epoch = r.epoch;
        break;
      case tel::TraceOp::kCounterInc:
        EXPECT_EQ(r.epoch, epoch) << "0 before the resize, its epoch after";
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(opens, 1);
  EXPECT_EQ(closes, 1);
  EXPECT_EQ(resizes, 1);
  // Exactly one epoch event per change: the first inc's 0, then the
  // resize's; open, close and the incs after the resize emit none.
  EXPECT_EQ(epoch_events(store), (std::vector<int64_t>{0, epoch}));
}

TEST(StoreTraceTest, AggregateReadsWitnessTheDigestValue) {
  StoreTraceFixture f;
  svc::C2Store store(f.cfg);
  {
    svc::C2Session s = store.open_session();
    svc::CounterRef c = s.counter(uint64_t{1});
    svc::MaxRef m = s.max(uint64_t{2});
    c.inc();
    c.inc();
    m.write(5);
    EXPECT_EQ(s.counter_sum(), 2);
    EXPECT_EQ(s.global_max(), 5);
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  ASSERT_EQ(d.lanes.size(), 1u);
  for (const tel::TraceRecord& r : d.lanes[0].records) {
    auto op = static_cast<tel::TraceOp>(r.op);
    if (op == tel::TraceOp::kCounterSum) {
      EXPECT_EQ(r.witness, 2);
      EXPECT_EQ(r.result, 2) << "the digest FAA(0) value IS the witness";
    } else if (op == tel::TraceOp::kGlobalMax) {
      EXPECT_EQ(r.witness, 5);
      EXPECT_EQ(r.result, 5);
    }
  }
}

// A reset refused for a spent budget must be distinguishable in the trace
// from one that recycled the TAS: the result field carries the ResetResult.
TEST(StoreTraceTest, TasResetRecordsCarryTheResetResult) {
  StoreTraceFixture f;
  f.cfg.tas_max_resets = 2;
  svc::C2Store store(f.cfg);
  {
    svc::C2Session s = store.open_session();
    svc::TasRef tas = s.tas(uint64_t{6});
    for (int i = 0; i < 2; ++i) {
      tas.test_and_set();
      EXPECT_EQ(tas.reset(), svc::ResetResult::kOk);
    }
    tas.test_and_set();
    EXPECT_EQ(tas.reset(), svc::ResetResult::kBudgetSpent);
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  ASSERT_EQ(d.lanes.size(), 1u);
  std::vector<int64_t> results;
  for (const tel::TraceRecord& r : d.lanes[0].records) {
    if (static_cast<tel::TraceOp>(r.op) == tel::TraceOp::kTasReset) {
      results.push_back(r.result);
    }
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[1], 0) << "ResetResult::kOk";
  EXPECT_EQ(results[2], 1) << "ResetResult::kBudgetSpent";
}

TEST(StoreTraceTest, ExportersEmitTheDocumentedShapes) {
  StoreTraceFixture f;
  svc::C2Store store(f.cfg);
  {
    svc::C2Session s = store.open_session();
    s.counter(uint64_t{1}).inc();
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  std::string json = tel::trace_to_json(d, "trace_test");
  EXPECT_NE(json.find("\"schema\":\"c2sl-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"counter_inc\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\":0"), std::string::npos);
}

TEST(StoreTraceTest, MultiThreadedCaptureStaysConsistent) {
  StoreTraceFixture f;
  svc::C2Store store(f.cfg);
  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, t] {
      svc::C2Session s = store.open_session();
      svc::CounterRef c = s.counter(static_cast<uint64_t>(t));
      for (int i = 0; i < kOps; ++i) c.inc();
    });
  }
  for (auto& th : pool) th.join();

  tel::TraceDump d = store.trace_dump();
  // Quiescent drain: every inc appears exactly once, witnesses globally
  // unique across lanes, strictly increasing within each lane.
  std::vector<int64_t> witnesses;
  for (const tel::LaneTraceDump& l : d.lanes) {
    EXPECT_EQ(l.dropped, 0u);
    int64_t prev = -1;
    for (const tel::TraceRecord& r : l.records) {
      if (static_cast<tel::TraceOp>(r.op) != tel::TraceOp::kCounterInc)
        continue;
      EXPECT_GT(r.witness, prev);
      prev = r.witness;
      witnesses.push_back(r.witness);
    }
  }
  ASSERT_EQ(witnesses.size(), static_cast<size_t>(kThreads * kOps));
  std::sort(witnesses.begin(), witnesses.end());
  for (size_t i = 0; i < witnesses.size(); ++i) {
    ASSERT_EQ(witnesses[i], static_cast<int64_t>(i))
        << "journal tickets must be dense and unique";
  }
}

#endif  // C2SL_CAPTURE

}  // namespace
}  // namespace c2sl
