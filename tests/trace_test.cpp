// Linearization-witness tracing, native verification (tools/trace_audit.py
// carries the offline order proofs; this suite pins the CAPTURE layer):
//
//  1. RECORD LAYOUT: one record is one 64-byte cache line, and a committed
//     record carries exactly what its TraceScope setters staged.
//  2. OVERFLOW accounting: past LaneTrace::kCap appends never block and never
//     tear — each is counted in `dropped`, published stays pinned at the cap,
//     and the drain reports both (the auditor refuses lossy traces, so a
//     dropped record can never silently pass an audit).
//  3. DRAIN-WHILE-WRITING: a concurrent drain — full, tail-only, or of the
//     pending record — sees only fully-written records (SPSC release/acquire
//     publication; the TSAN job runs this test to certify the claimed
//     data-race freedom).
//  4. WITNESS plumbing on a live C2Store: every journal-facet op carries a
//     witness, witnesses are strictly increasing per lane in program order
//     (strong linearizability's own-step property made visible), reads stay
//     deliberately unwitnessed, transfers carry both buckets and their own
//     ticket, resize events carry the epoch, and the exporter emits the
//     documented c2sl-trace-v1 shape.
//
// Everything but the flavour-independent record checks needs the live layer,
// so a C2SL_CAPTURE=0 build compiles it out (tests/trace_off_test.cpp
// covers that flavour).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "service/c2store.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace c2sl {
namespace {

// --- 1. record layout --------------------------------------------------------

TEST(TraceRecordTest, OneCacheLinePlainLayout) {
  static_assert(sizeof(tel::TraceRecord) == 64);
  static_assert(std::is_trivially_copyable_v<tel::TraceRecord>);
  tel::TraceRecord r;
  EXPECT_EQ(r.key, -1);
  EXPECT_EQ(r.key_b, -1);
  EXPECT_EQ(r.witness, -1);
  EXPECT_EQ(r.epoch, -1);
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
    tr.set_epoch(2);
  }
  // Single-tick capture: the record stays pending until the lane's next
  // activity stamps its response; an explicit flush() is that activity here.
  // Until then only pending() — the post-mortem view — sees it.
  EXPECT_EQ(lt->published(), 0u);
  tel::TraceRecord p;
  ASSERT_EQ(lt->pending(p), 0);
  EXPECT_EQ(p.op, static_cast<int32_t>(tel::TraceOp::kTransfer));
  EXPECT_EQ(p.key_b, 11);
  EXPECT_EQ(p.witness, 7);
  lt->flush();
  EXPECT_EQ(lt->pending(p), -1) << "a committed record is no longer pending";
  ASSERT_EQ(lt->published(), 1u);
  tel::LaneTraceDump ld;
  lt->drain_into(ld);
  ASSERT_EQ(ld.records.size(), 1u);
  const tel::TraceRecord& r = ld.records[0];
  EXPECT_EQ(r.op, static_cast<int32_t>(tel::TraceOp::kTransfer));
  EXPECT_EQ(r.key, 3);
  EXPECT_EQ(r.key_b, 11);
  EXPECT_EQ(r.arg, 40);
  EXPECT_EQ(r.result, 7);
  EXPECT_EQ(r.witness, 7);
  EXPECT_EQ(r.epoch, 2);
  EXPECT_GE(r.t1, r.t0);
}

// --- 2. overflow drop accounting ---------------------------------------------

TEST(LaneTraceTest, OverflowDropsWithCountNeverBlocks) {
  tel::StoreTrace trace;
  tel::LaneTrace* lt = trace.lane(0);
  constexpr uint64_t kExtra = 7;
  for (uint64_t i = 0; i < tel::LaneTrace::kCap + kExtra; ++i) {
    trace.record_event(lt, tel::TraceOp::kCounterRead, /*key=*/1, /*arg=*/0,
                       /*result=*/static_cast<int64_t>(i), /*witness=*/-1,
                       /*epoch=*/-1);
  }
  EXPECT_EQ(lt->published(), tel::LaneTrace::kCap);
  EXPECT_EQ(lt->dropped(), kExtra);
  tel::LaneTraceDump ld;
  lt->drain_into(ld);
  EXPECT_EQ(ld.records.size(), tel::LaneTrace::kCap);
  EXPECT_EQ(ld.dropped, kExtra);
  // The retained prefix is the FIRST kCap records, untorn.
  EXPECT_EQ(ld.records.front().result, 0);
  EXPECT_EQ(ld.records.back().result,
            static_cast<int64_t>(tel::LaneTrace::kCap) - 1);

  // The store-level dump carries the drop through to the exporters.
  tel::TraceDump d = trace.dump(/*max_lanes=*/1, /*initial_shards=*/16);
  ASSERT_EQ(d.lanes.size(), 1u);
  EXPECT_EQ(d.lanes[0].dropped, kExtra);
  std::string json = tel::trace_to_json(d, "trace_test");
  EXPECT_NE(json.find("\"dropped_total\":7"), std::string::npos) << json;
}

// --- 3. drain while writing (the TSAN certificate) ---------------------------

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
    }
    lt->flush();  // commit the last pending record before signalling done
    done.store(true, std::memory_order_release);
  });

  uint64_t last_seen = 0;
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
    // The post-mortem reads: a tail-only drain starts at the right index,
    // and the pending record, when one is staged, is the op after the last
    // published one (witness == lane index here).
    tel::LaneTraceDump tail;
    uint64_t first = lt->drain_into(tail, /*tail=*/8);
    ASSERT_LE(tail.records.size(), 8u);
    for (size_t i = 0; i < tail.records.size(); ++i) {
      ASSERT_EQ(tail.records[i].witness, static_cast<int64_t>(first + i));
    }
    tel::TraceRecord p;
    int64_t at = lt->pending(p);
    if (at >= 0) {
      ASSERT_EQ(p.witness, at);
      ASSERT_EQ(p.result, at);
    }
  }
  writer.join();
  EXPECT_EQ(lt->published(), static_cast<uint64_t>(kWrites));
  EXPECT_EQ(lt->dropped(), 0u);
}

// --- 4. witness plumbing on a live store -------------------------------------

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
  {
    svc::C2Session s = store.open_session();
    svc::CounterRef c = s.counter(uint64_t{1});
    svc::MaxRef m = s.max(uint64_t{2});
    for (int i = 0; i < 8; ++i) {
      c.inc();
      m.write(i);
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
    if (op == tel::TraceOp::kCounterInc || op == tel::TraceOp::kMaxWrite) {
      EXPECT_GE(r.witness, 0) << "journal op without a witness";
      EXPECT_GT(r.witness, prev_witness)
          << "per-lane witness order must be strict: program order on one "
             "lane IS real-time order";
      prev_witness = r.witness;
      EXPECT_GE(r.epoch, 0);
      ++journal_ops;
    } else if (op == tel::TraceOp::kCounterRead ||
               op == tel::TraceOp::kMaxRead) {
      EXPECT_EQ(r.witness, -1) << "plain reads are deliberately unwitnessed";
    }
  }
  EXPECT_EQ(journal_ops, 16);
  // The journal issued exactly the tickets the trace shows: 0..15 dense.
  EXPECT_EQ(prev_witness, 15);
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
    EXPECT_EQ(s.resize(8), svc::ResizeStatus::kInstalled);
    c.inc();
    s.close();
  }
  tel::TraceDump d = store.trace_dump();
  ASSERT_EQ(d.lanes.size(), 1u);
  int opens = 0, closes = 0, resizes = 0;
  for (const tel::TraceRecord& r : d.lanes[0].records) {
    switch (static_cast<tel::TraceOp>(r.op)) {
      case tel::TraceOp::kSessionOpen:
        ++opens;
        EXPECT_EQ(r.t0, r.t1) << "lifecycle records are point events";
        break;
      case tel::TraceOp::kSessionClose:
        ++closes;
        break;
      case tel::TraceOp::kResize:
        ++resizes;
        EXPECT_EQ(r.arg, 8) << "new shard count";
        EXPECT_GE(r.witness, 0) << "the kResize journal marker is the witness";
        EXPECT_GT(r.epoch, 0) << "the freshly published epoch";
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(opens, 1);
  EXPECT_EQ(closes, 1);
  EXPECT_EQ(resizes, 1);
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
