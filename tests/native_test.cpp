// Real std::thread stress tests of the native (bounded, 64-bit lane)
// constructions, with post-hoc linearizability checking of the recorded
// histories and semantic invariant checks at higher volume.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/keyed_version_digest.h"
#include "runtime/native_max_register.h"
#include "runtime/native_snapshot.h"
#include "runtime/native_tas_family.h"
#include "runtime/stress.h"
#include "util/rng.h"
#include "verify/lin_checker.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

std::vector<sim::OpRecord> to_records(const std::vector<rt::TimedOp>& ops) {
  std::vector<sim::OpRecord> out;
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const rt::TimedOp& t = ops[i];
    sim::OpRecord r;
    r.id = static_cast<sim::OpId>(i);
    r.proc = t.thread;
    r.object = "native";
    r.name = t.name;
    r.args = num(t.arg);
    r.complete = true;
    if (t.name == "WriteMax" || t.name == "Update") {
      r.resp = unit();
    } else if (t.name == "Scan") {
      r.resp = unit();  // filled by caller when needed
    } else {
      r.resp = num(t.resp);
    }
    r.inv_seq = t.inv_seq;
    r.resp_seq = t.resp_seq;
    out.push_back(std::move(r));
  }
  return out;
}

TEST(NativeMaxRegister, StressHistoriesLinearizable) {
  const int threads = 3;
  const int ops = 5;  // 15 ops total: within the checker's 64-op limit
  for (int round = 0; round < 8; ++round) {
    rt::NativeMaxRegister64 reg(threads, 10);
    std::vector<Rng> rngs;
    for (int t = 0; t < threads; ++t) rngs.emplace_back(1000 * round + t);
    auto history = rt::run_stress(threads, ops, [&](int t, int) {
      rt::TimedOp op;
      if (rngs[static_cast<size_t>(t)].next_bool(0.5)) {
        op.name = "WriteMax";
        op.arg = rngs[static_cast<size_t>(t)].next_in(0, 10);
        reg.write_max(t, op.arg);
      } else {
        op.name = "ReadMax";
        op.resp = reg.read_max();
      }
      return op;
    });
    verify::MaxRegisterSpec spec;
    auto records = to_records(history);
    auto res = verify::check_linearizability(records, spec);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << "\n" << res.explanation;
  }
}

TEST(NativeMaxRegister, MonotoneReadsHighVolume) {
  const int threads = 4;
  rt::NativeMaxRegister64 reg(threads, 15);
  std::vector<std::atomic<int64_t>> last_read(threads);
  std::atomic<bool> monotone{true};
  rt::run_stress(threads, 2000, [&](int t, int j) {
    rt::TimedOp op;
    if (j % 3 == 0) {
      op.name = "WriteMax";
      op.arg = (j / 3) % 16;
      reg.write_max(t, op.arg);
    } else {
      op.name = "ReadMax";
      op.resp = reg.read_max();
      int64_t prev = last_read[static_cast<size_t>(t)].exchange(op.resp);
      if (op.resp < prev) monotone.store(false);
    }
    return op;
  });
  // Per-thread sequential reads of a max register can never decrease.
  EXPECT_TRUE(monotone.load());
}

// The packing bound is lane_max(n) = 2^(64/n) - 1, capped at INT64_MAX: each
// register accepts its edge and rejects one past it, and a bound whose + 1
// would overflow int64 is rejected, not wrapped into range.
TEST(NativeMaxRegister, OverflowingPackingBoundsRejected) {
  EXPECT_EQ(rt::lane_max(8), 255);
  EXPECT_EQ(rt::lane_max(4), 65535);
  EXPECT_EQ(rt::lane_max(2), int64_t{0xFFFFFFFF});
  EXPECT_EQ(rt::lane_max(1), INT64_MAX);
  EXPECT_EQ(rt::lane_max(64), 1);
  EXPECT_THROW(rt::lane_max(0), PreconditionError);
  EXPECT_THROW(rt::lane_max(65), PreconditionError);
  EXPECT_THROW(rt::NativeMaxRegister64(8, 256), PreconditionError);
  EXPECT_THROW(rt::NativeMaxRegister64(4, 65536), PreconditionError);
  EXPECT_THROW(rt::NativeMaxRegister64(2, int64_t{1} << 32), PreconditionError);
  EXPECT_THROW(rt::NativeMaxRegister64(65, 1), PreconditionError);
  EXPECT_THROW(rt::NativeSnapshot64(0), PreconditionError);
  EXPECT_THROW(rt::NativeMultishotTAS(1, INT64_MAX), PreconditionError);
  EXPECT_THROW(rt::NativeMultishotTAS(4, 65535), PreconditionError);
  rt::NativeMultishotTAS most_resets(4, 65534);  // 2^16 - 2 resets still fit
  EXPECT_EQ(most_resets.max_resets(), 65534);

  rt::NativeMaxRegister64 eight(8, 255);
  eight.write_max(7, 255);
  eight.write_max(0, 254);
  EXPECT_EQ(eight.read_max(), 255);
  rt::NativeMaxRegister64 four(4, 65535);
  four.write_max(1, 65535);
  four.write_max(3, 40000);
  EXPECT_EQ(four.read_max(), 65535);
  rt::NativeMaxRegister64 widest(1, INT64_MAX);  // one lane, all 63 value bits
  widest.write_max(0, INT64_MAX - 1);
  EXPECT_EQ(widest.read_max(), INT64_MAX - 1);
  widest.write_max(0, INT64_MAX);
  EXPECT_EQ(widest.read_max(), INT64_MAX);
}

// An update adds only inside its own lane: the carry of a binary lane going
// 0x7FFF -> 0x8000 never reaches a neighbour, nor does the borrow of the top
// lane going back down.
TEST(NativeMaxRegister, RaisingWritesCarryInsideTheirLane) {
  rt::NativeSnapshot64 snap(4);
  snap.update(0, 0x7FFF);
  snap.update(3, 0x8000);
  snap.update(0, 0x8000);
  snap.update(3, 0x7FFF);
  snap.update(1, 1);
  EXPECT_EQ(snap.scan(), (std::vector<int64_t>{0x8000, 1, 0, 0x7FFF}));
  rt::NativeMaxRegister64 reg(4, 65535);
  reg.write_max(2, 0x00FF);
  reg.write_max(2, 0x0100);
  reg.write_max(1, 0x00FF);
  EXPECT_EQ(reg.read_max(), 0x0100);
  reg.write_max(3, 0xFFFF);
  EXPECT_EQ(reg.read_max(), 0xFFFF);
}

// One lane may take all 64 bits: its components span every non-negative
// int64 (2^64 - 1 does not fit one).
TEST(NativeSnapshot, SingleLaneTakesTheWholeWord) {
  rt::NativeSnapshot64 snap(1);
  EXPECT_EQ(rt::lane_max(1), INT64_MAX);
  snap.update(0, INT64_MAX);
  EXPECT_EQ(snap.scan(), std::vector<int64_t>{INT64_MAX});
  snap.update(0, 5);
  EXPECT_EQ(snap.scan(), std::vector<int64_t>{5});
}

TEST(NativeSnapshot, StressHistoriesLinearizable) {
  const int threads = 3;
  const int ops = 5;
  for (int round = 0; round < 8; ++round) {
    rt::NativeSnapshot64 snap(threads);  // 3 lanes x 21 bits
    std::vector<Rng> rngs;
    for (int t = 0; t < threads; ++t) rngs.emplace_back(2000 * round + t);
    std::vector<std::vector<int64_t>> scan_results(
        static_cast<size_t>(threads * ops));
    std::atomic<int> scan_idx{0};
    std::vector<rt::TimedOp> raw = rt::run_stress(threads, ops, [&](int t, int) {
      rt::TimedOp op;
      if (rngs[static_cast<size_t>(t)].next_bool(0.5)) {
        op.name = "Update";
        op.arg = rngs[static_cast<size_t>(t)].next_in(0, 15);
        snap.update(t, op.arg);
      } else {
        op.name = "Scan";
        int slot = scan_idx.fetch_add(1);
        scan_results[static_cast<size_t>(slot)] = snap.scan();
        op.arg = slot;
      }
      return op;
    });
    // Build records with vector responses for scans.
    std::vector<sim::OpRecord> records;
    for (size_t i = 0; i < raw.size(); ++i) {
      sim::OpRecord r;
      r.id = static_cast<sim::OpId>(i);
      r.proc = raw[i].thread;
      r.object = "snap";
      r.name = raw[i].name;
      r.args = num(raw[i].arg);
      r.complete = true;
      r.inv_seq = raw[i].inv_seq;
      r.resp_seq = raw[i].resp_seq;
      r.resp = raw[i].name == "Scan"
                   ? vec(scan_results[static_cast<size_t>(raw[i].arg)])
                   : unit();
      if (raw[i].name == "Scan") r.args = unit();
      records.push_back(std::move(r));
    }
    verify::SnapshotSpec spec(threads);
    auto res = verify::check_linearizability(records, spec);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << "\n" << res.explanation;
  }
}

TEST(NativeReadableTAS, ExactlyOneWinnerHighVolume) {
  for (int round = 0; round < 50; ++round) {
    rt::NativeReadableTAS tas;
    std::atomic<int> winners{0};
    rt::run_stress(4, 1, [&](int, int) {
      rt::TimedOp op;
      op.name = "TAS";
      op.resp = tas.test_and_set();
      if (op.resp == 0) winners.fetch_add(1);
      return op;
    });
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(tas.read(), 1);
  }
}

// Concurrent reads of the one-byte cell: every round's TAS/Read history must
// be linearizable as a readable test&set.
TEST(NativeReadableTAS, MixedHistoriesLinearizable) {
  const int threads = 4;
  const int ops = 4;  // 16 ops per round: within the checker's 64-op limit
  for (int round = 0; round < 64; ++round) {
    rt::NativeReadableTAS tas;
    std::vector<Rng> rngs;
    for (int t = 0; t < threads; ++t) rngs.emplace_back(7000 * round + t);
    auto history = rt::run_stress(threads, ops, [&](int t, int) {
      rt::TimedOp op;
      if (rngs[static_cast<size_t>(t)].next_bool(0.5)) {
        op.name = "TAS";
        op.resp = tas.test_and_set();
      } else {
        op.name = "Read";
        op.resp = tas.read();
      }
      return op;
    });
    verify::TasSpec spec;
    auto records = to_records(history);
    auto res = verify::check_linearizability(records, spec);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << "\n" << res.explanation;
  }
}

TEST(NativeFetchIncrement, DistinctDenseValuesHighVolume) {
  const int threads = 4;
  const int per_thread = 500;
  rt::NativeFetchIncrement fai;  // unbounded: crosses several segment doublings
  std::vector<std::vector<int64_t>> got(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int) {
    rt::TimedOp op;
    op.name = "FAI";
    op.resp = fai.fetch_and_increment();
    got[static_cast<size_t>(t)].push_back(op.resp);
    return op;
  });
  std::set<int64_t> all;
  for (const auto& v : got) {
    for (int64_t x : v) {
      EXPECT_TRUE(all.insert(x).second) << "duplicate " << x;
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(threads * per_thread));
  EXPECT_EQ(*all.rbegin(), threads * per_thread - 1);  // dense range
  EXPECT_EQ(fai.read(), threads * per_thread);
}

TEST(NativeFetchIncrement, StressHistoriesLinearizable) {
  for (int round = 0; round < 8; ++round) {
    rt::NativeFetchIncrement fai;
    auto history = rt::run_stress(3, 5, [&](int t, int j) {
      rt::TimedOp op;
      if ((t + j) % 3 == 0) {
        op.name = "Read";
        op.resp = fai.read();
      } else {
        op.name = "FAI";
        op.resp = fai.fetch_and_increment();
      }
      return op;
    });
    verify::FaiSpec spec;
    auto records = to_records(history);
    auto res = verify::check_linearizability(records, spec);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << "\n" << res.explanation;
  }
}

TEST(NativeFetchIncrement, MixedHistoriesLinearizableAtHighValue) {
  // Past ten doublings the frontier word, not a search from zero, is what
  // every op starts from; racing winners may leave it stale.
  const int64_t kPrefill = int64_t{1} << 16;
  for (int round = 0; round < 8; ++round) {
    rt::NativeFetchIncrement fai;
    for (int64_t i = 0; i < kPrefill; ++i) fai.fetch_and_increment();
    auto history = rt::run_stress(3, 5, [&](int t, int j) {
      rt::TimedOp op;
      if ((t + j) % 3 == 0) {
        op.name = "Read";
        op.resp = fai.read() - kPrefill;
      } else {
        op.name = "FAI";
        op.resp = fai.fetch_and_increment() - kPrefill;
      }
      return op;
    });
    verify::FaiSpec spec;
    auto records = to_records(history);
    auto res = verify::check_linearizability(records, spec);
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << "\n" << res.explanation;
  }
}

TEST(NativeFetchIncrement, ReadsMonotoneAndBoundedUnderIncs) {
  const int64_t kPrefill = int64_t{1} << 16;
  const int kIncThreads = 2;
  const int kReadThreads = 2;
  const int64_t kIncsPerThread = 20000;
  rt::NativeFetchIncrement fai;
  for (int64_t i = 0; i < kPrefill; ++i) fai.fetch_and_increment();
  std::atomic<int64_t> invoked{0};    // incs begun (bumped before the call)
  std::atomic<int64_t> completed{0};  // incs returned (bumped after it)
  std::atomic<int> incers_left{kIncThreads};
  std::vector<int64_t> violations(kReadThreads, 0);
  std::vector<int64_t> reads(kReadThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kIncThreads; ++t) {
    pool.emplace_back([&] {
      for (int64_t i = 0; i < kIncsPerThread; ++i) {
        invoked.fetch_add(1);
        fai.fetch_and_increment();
        completed.fetch_add(1);
      }
      incers_left.fetch_sub(1);
    });
  }
  for (int t = 0; t < kReadThreads; ++t) {
    pool.emplace_back([&, t] {
      int64_t last = 0;
      while (incers_left.load() > 0) {
        const int64_t floor = kPrefill + completed.load();
        const int64_t r = fai.read();
        const int64_t ceiling = kPrefill + invoked.load();
        // Never below an earlier read or an inc that returned before this
        // read began; never above the incs begun before it returned.
        if (r < last || r < floor || r > ceiling) ++violations[t];
        last = r;
        ++reads[t];
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < kReadThreads; ++t) {
    EXPECT_EQ(violations[t], 0)
        << "reader " << t << ", " << reads[t] << " reads";
  }
  EXPECT_EQ(fai.read(), kPrefill + kIncThreads * kIncsPerThread);
}

TEST(NativeMultishotTAS, GenerationsBehave) {
  rt::NativeMultishotTAS tas(/*n=*/2, /*max_resets=*/8);
  EXPECT_EQ(tas.read(), 0);
  EXPECT_EQ(tas.test_and_set(0), 0);
  EXPECT_EQ(tas.test_and_set(1), 1);
  EXPECT_EQ(tas.read(), 1);
  tas.reset(0);
  EXPECT_EQ(tas.read(), 0);
  EXPECT_EQ(tas.test_and_set(1), 0);
}

TEST(NativeSet, NoItemTakenTwiceHighVolume) {
  const int threads = 4;
  const int per_thread = 200;
  rt::NativeSet set;
  std::vector<std::vector<int64_t>> taken(static_cast<size_t>(threads));
  rt::run_stress(threads, per_thread, [&](int t, int j) {
    rt::TimedOp op;
    if (j % 2 == 0) {
      op.name = "Put";
      op.arg = t * 100000 + j;
      set.put(op.arg);
    } else {
      op.name = "Take";
      op.resp = set.take();
      if (op.resp != rt::NativeSet::kEmpty) {
        taken[static_cast<size_t>(t)].push_back(op.resp);
      }
    }
    return op;
  });
  std::set<int64_t> unique;
  size_t total = 0;
  for (const auto& v : taken) {
    for (int64_t x : v) {
      EXPECT_TRUE(unique.insert(x).second) << "item taken twice: " << x;
      ++total;
    }
  }
  EXPECT_EQ(unique.size(), total);
}


// --- KeyedVersionDigest (the snapshot write journal) -------------------------

using Journal = rt::KeyedVersionDigest;
using JKind = Journal::Kind;

static_assert(sizeof(Journal::Cell) == 8, "a journal cell is one 64-bit word");

// Every kind must decode to what was appended at its field extremes; a wide
// transfer occupies two tickets, everything else one.
TEST(KeyedVersionDigest, EachKindRoundTripsAtItsFieldExtremes) {
  const int top = Journal::kMaxBuckets - 1;
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  struct Case {
    JKind kind;
    int a, b;
    int64_t v;
    int cells;
  };
  const std::vector<Case> cases = {
      {JKind::kCounterInc, 0, 0, 1, 1},
      {JKind::kCounterInc, top, 0, 1, 1},
      {JKind::kMaxWrite, 0, 0, 0, 1},
      {JKind::kMaxWrite, top, 0, Journal::kMaxValue, 1},
      {JKind::kResize, 0, 0, 1, 1},
      {JKind::kResize, top, 0, Journal::kMaxValue, 1},
      {JKind::kTransfer, 0, top, 0, 1},
      {JKind::kTransfer, top, 0, -4096, 1},
      {JKind::kTransfer, top, top, 4095, 1},
      {JKind::kTransfer, 0, top, -4097, 2},
      {JKind::kTransfer, top, 0, 4097, 2},
      {JKind::kTransfer, top, top, lo, 2},
      {JKind::kTransfer, 0, 0, hi, 2},
      {JKind::kTransfer, 1, top - 1, -1, 1},
  };
  ASSERT_EQ(Journal::kInlineMin, -4096);
  ASSERT_EQ(Journal::kInlineMax, 4095);
  Journal j;
  std::vector<int64_t> tickets;
  int64_t expect = 0;
  for (const Case& c : cases) {
    int64_t t = j.append(c.kind, c.a, c.b, c.v);
    EXPECT_EQ(t, expect);
    tickets.push_back(t);
    expect += c.cells;
  }
  EXPECT_EQ(j.tickets_issued(), expect);
  EXPECT_EQ(j.version(), expect);
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    Journal::EntryView e = j.entry(tickets[i]);
    EXPECT_EQ(e.kind, c.kind) << "case " << i;
    EXPECT_EQ(e.shard_a, c.a) << "case " << i;
    EXPECT_EQ(e.shard_b, c.b) << "case " << i;
    EXPECT_EQ(e.v, c.v) << "case " << i;
    EXPECT_EQ(e.cells, c.cells) << "case " << i;
  }
}

// Entries that do not fit a cell fail closed before the ticket is drawn.
TEST(KeyedVersionDigest, OutOfRangeEntriesThrowWithoutATicket) {
  Journal j;
  EXPECT_THROW(j.append(JKind::kCounterInc, 0, 0, 2), PreconditionError);
  EXPECT_THROW(j.append(JKind::kCounterInc, Journal::kMaxBuckets, 0, 1),
               PreconditionError);
  EXPECT_THROW(j.append(JKind::kTransfer, 0, Journal::kMaxBuckets, 1),
               PreconditionError);
  EXPECT_THROW(j.append(JKind::kMaxWrite, 0, 0, -1), PreconditionError);
  EXPECT_THROW(j.append(JKind::kMaxWrite, 0, 0, Journal::kMaxValue + 1),
               PreconditionError);
  EXPECT_THROW(j.append(JKind::kResize, 0, 0, Journal::kMaxValue + 1),
               PreconditionError);
  EXPECT_EQ(j.tickets_issued(), 0);
}

// A reader off an entry boundary — here at a wide transfer's amount cell,
// whose low bits hold no deposited tag — fails closed instead of folding the
// amount as a header. (A *DeathTest suite runs before any test starts a
// thread, so the fork is safe.)
TEST(KeyedVersionDigestDeathTest, ReadingInsideAWideTransferAborts) {
  Journal j;
  int64_t t = j.append(JKind::kTransfer, 0, 1, 5000);
  EXPECT_EQ(j.entry(t).v, 5000);
  EXPECT_DEATH(j.entry(t + 1), "not an entry header");
}

// Three appenders mix inline and wide transfers while one replayer follows
// the tail: at every tail it reads, the balances it replayed sum to zero (no
// tail splits a wide entry, and every entry decodes as a transfer between
// real buckets), and its final replay equals the appended per-bucket totals.
TEST(KeyedVersionDigest, ConcurrentWideTransfersReplayConsistently) {
  const int appenders = 3;
  const int per_thread = 20000;
  const int buckets = 64;
  Journal j;
  std::vector<std::vector<int64_t>> want(
      appenders, std::vector<int64_t>(buckets, 0));
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < appenders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9100 + static_cast<uint64_t>(t));
      auto& w = want[static_cast<size_t>(t)];
      for (int i = 0; i < per_thread; ++i) {
        int a = static_cast<int>(rng.next_below(buckets));
        int b = static_cast<int>(rng.next_below(buckets));
        int64_t v = rng.next_bool(0.5)
                        ? rng.next_in(Journal::kInlineMin, Journal::kInlineMax)
                        : rng.next_in(int64_t{4097}, int64_t{1} << 40) *
                              (rng.next_bool(0.5) ? 1 : -1);
        j.append(JKind::kTransfer, a, b, v);
        w[static_cast<size_t>(a)] -= v;
        w[static_cast<size_t>(b)] += v;
      }
      done.fetch_add(1);
    });
  }
  std::vector<int64_t> got(buckets, 0);
  int64_t cursor = 0;
  // Returns the first violation; the appenders are joined before reporting.
  auto replay = [&]() -> std::string {
    bool last = false;
    while (!last) {
      last = done.load() == appenders;  // read before the tail: final pass
      int64_t tail = j.version();
      Journal::EntryView e{};
      for (int64_t c = cursor; c < tail; c += e.cells) {
        e = j.entry(c);
        if (e.kind != JKind::kTransfer || e.shard_a >= buckets ||
            e.shard_b >= buckets) {
          return "ticket " + std::to_string(c) + " is not a transfer entry";
        }
        got[static_cast<size_t>(e.shard_a)] -= e.v;
        got[static_cast<size_t>(e.shard_b)] += e.v;
        cursor = c + e.cells;
      }
      if (cursor != tail) {
        return "a wide entry straddled tail " + std::to_string(tail);
      }
      int64_t sum = 0;
      for (int64_t x : got) sum += x;
      if (sum != 0) {
        return "balances sum to " + std::to_string(sum) + " at tail " +
               std::to_string(tail);
      }
    }
    return "";
  };
  std::string err = replay();
  for (auto& th : threads) th.join();
  ASSERT_EQ(err, "");
  std::vector<int64_t> total(buckets, 0);
  for (const auto& w : want) {
    for (size_t k = 0; k < total.size(); ++k) total[k] += w[k];
  }
  EXPECT_EQ(got, total);
  EXPECT_EQ(j.tickets_issued(), cursor);
  EXPECT_GT(cursor, int64_t{appenders} * per_thread);  // some were wide
}

// Three appenders mix increments, max writes and inline and wide transfers
// across several prefault chunks and a segment boundary, so appenders
// prefault chunks while others deposit into them and a replayer follows the
// tail. Every replayed entry decodes to an appended kind between real
// buckets, at every tail the balances sum to the increments replayed, and
// the final replay equals the appended per-bucket totals.
TEST(KeyedVersionDigest, ConcurrentAppendsAcrossPrefaultChunksReplayConsistently) {
  using Arr = rt::SegmentedArray<Journal::Cell>;
  const int appenders = 3;
  const int per_thread = 12000;
  const int buckets = 32;
  const int segment = 9;  // starts at ticket 32,704, inside chunk 3
  Journal j;
  struct Totals {
    std::vector<int64_t> balance = std::vector<int64_t>(buckets, 0);
    std::vector<int64_t> max = std::vector<int64_t>(buckets, 0);
    int64_t incs = 0;
  };
  std::vector<Totals> want(appenders);
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < appenders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9300 + static_cast<uint64_t>(t));
      Totals& w = want[static_cast<size_t>(t)];
      for (int i = 0; i < per_thread; ++i) {
        const int a = static_cast<int>(rng.next_below(buckets));
        const int b = static_cast<int>(rng.next_below(buckets));
        const size_t ua = static_cast<size_t>(a);
        switch (rng.next_below(4)) {
          case 0:
            j.append(JKind::kCounterInc, a, 0, 1);
            ++w.balance[ua];
            ++w.incs;
            break;
          case 1: {
            const int64_t v = rng.next_in(int64_t{0}, Journal::kMaxValue);
            j.append(JKind::kMaxWrite, a, 0, v);
            w.max[ua] = std::max(w.max[ua], v);
            break;
          }
          default: {
            const int64_t v =
                rng.next_bool(0.5)
                    ? rng.next_in(Journal::kInlineMin, Journal::kInlineMax)
                    : rng.next_in(int64_t{4097}, int64_t{1} << 40);
            j.append(JKind::kTransfer, a, b, v);
            w.balance[ua] -= v;
            w.balance[static_cast<size_t>(b)] += v;
          }
        }
      }
      done.fetch_add(1);
    });
  }
  Totals got;
  int64_t cursor = 0;
  // Returns the first violation; the appenders are joined before reporting.
  auto replay = [&]() -> std::string {
    bool last = false;
    while (!last) {
      last = done.load() == appenders;  // read before the tail: final pass
      const int64_t tail = j.version();
      Journal::EntryView e{};
      for (int64_t c = cursor; c < tail; c += e.cells) {
        e = j.entry(c);
        if (e.shard_a >= buckets || e.shard_b >= buckets) {
          return "ticket " + std::to_string(c) + " names no real bucket";
        }
        const size_t ua = static_cast<size_t>(e.shard_a);
        switch (e.kind) {
          case JKind::kCounterInc:
            ++got.balance[ua];
            ++got.incs;
            break;
          case JKind::kMaxWrite:
            got.max[ua] = std::max(got.max[ua], e.v);
            break;
          case JKind::kTransfer:
            got.balance[ua] -= e.v;
            got.balance[static_cast<size_t>(e.shard_b)] += e.v;
            break;
          default:
            return "ticket " + std::to_string(c) + " is not an appended kind";
        }
        cursor = c + e.cells;
      }
      if (cursor != tail) {
        return "a wide entry straddled tail " + std::to_string(tail);
      }
      int64_t sum = 0;
      for (int64_t x : got.balance) sum += x;
      if (sum != got.incs) {
        return "balances sum to " + std::to_string(sum) + " after " +
               std::to_string(got.incs) + " increments";
      }
    }
    return "";
  };
  std::string err = replay();
  for (auto& th : threads) th.join();
  ASSERT_EQ(err, "");
  Totals total;
  for (const Totals& w : want) {
    for (size_t k = 0; k < static_cast<size_t>(buckets); ++k) {
      total.balance[k] += w.balance[k];
      total.max[k] = std::max(total.max[k], w.max[k]);
    }
    total.incs += w.incs;
  }
  EXPECT_EQ(got.balance, total.balance);
  EXPECT_EQ(got.max, total.max);
  EXPECT_EQ(got.incs, total.incs);
  EXPECT_EQ(j.tickets_issued(), cursor);
  // The run crossed the chunks and the segment boundary it is meant to.
  EXPECT_GT(cursor, 4 * Journal::kPrefaultChunk);
  EXPECT_GT(cursor, static_cast<int64_t>(Arr::segment_start(segment)));
  EXPECT_LT(Arr::segment_start(segment), size_t{4} * Journal::kPrefaultChunk);
}

}  // namespace
}  // namespace c2sl
