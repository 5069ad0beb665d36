// KeyedVersionDigest — the write journal behind C2Session::snapshot(): a
// strongly-linearizable multi-key read surface built from fetch&add and plain
// registers only (no CAS, no capacity knobs), on the SegmentedArray spine.
//
// Why a journal and not a per-key-version double-collect. The obvious
// construction — bump a per-key FAA version word on every write, double-collect
// the keyed values until the version vector stabilises — is linearizable but
// NOT strongly linearizable, by the same future-dependence that kills every
// validation-window scheme (the pinned double-collect refutations in
// tests/service_sim_test.cpp): whether a collect "was consistent" is decided
// by version reads the scanner performs LATER, so the scan's linearization
// point is not prefix-closed. Worse, overlapping scans can be forced into a
// prefix-closure contradiction by one in-flight writer whose value step landed
// but whose version bump is deferred past both validations (docs/PROOFS.md
// works the two-scanner anomaly in full). The paper's way out (§3.1/§3.2) is
// to make every operation linearize at ONE step of its own on ONE word — so
// the multi-key state is packed behind a single fetch&add TAIL:
//
//   * every keyed write appends one immutable entry to a ticket-indexed
//     journal — the ticket fetch&add on the tail word IS the write's
//     linearization point (fixed own-step);
//   * a snapshot reads the tail once with FAA(0) — its linearization point —
//     and deterministically REPLAYS entries below that ticket into per-shard
//     accumulators. Two snapshots that read the same tail return identical
//     vectors; prefix closure holds because every op's point is its own step.
//
// The tail word doubles as the class's "version digest": it advances by one
// per keyed write (two for a wide transfer, below), so it bounds the replay
// the way the per-key version words were meant to bound the double-collect —
// except here the bound is exact and the collect is a deterministic function
// of it.
//
// Entry layout: one std::atomic<uint64_t> cell per entry, the same single
// word the simulated twin (svc::SimKeyedSnapshot::journal_append) writes. Bits
// 0-2 hold the kind tag (0 = not deposited), the next 24 bits bucket a, and
// the remaining 37 bits depend on the kind:
//
//   inc          nothing (the value is always 1; append CHECKs it)
//   max, resize  the unsigned value (< 2^37)
//   transfer     bucket b in 24 bits, then the signed amount in 13 bits
//
// A transfer whose amount lies outside [kInlineMin, kInlineMax] is WIDE: its
// one fetch&add draws two tickets (fetch_add(2), still one own step, so the
// linearization argument is unchanged), cell t carries the header under its
// own tag and cell t+1 the raw 64-bit amount. A tail FAA never returns t+1, so
// a replay cursor never lands inside a wide entry; replayers advance by
// EntryView::cells.
//
// Deposit protocol (the HandoffQueue rendezvous idiom): the ticket owner
// fixes the entry's content at its ticket fetch&add and publishes it with one
// release store of the header word (a wide transfer stores its amount cell
// first, then the header). A replayer that holds a tail ticket T
// acquire-spins on the header of each entry below T — bounded by the number
// of writers still between their ticket fetch&add and their deposit, so
// snapshots are lock-free but not wait-free (a stalled depositor stalls
// replayers; the entry CONTENT is nevertheless fixed at ticket time, which is
// what keeps the replay deterministic). Entries are write-once and 8 bytes;
// adjacent tickets share cache lines, but each deposit is one store, not an
// RMW, so the contended word is the tail, not the cells.
//
// Growth: the journal is unbounded (one cell per keyed write, two per wide
// transfer, on the lazily grown SegmentedArray — no capacity knobs).
// Truncation/compaction below the slowest session cursor is the ROADMAP
// follow-up; sessions keep replay cursors precisely so that becomes a local
// change.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

class KeyedVersionDigest {
  // Cell layout, low bits first: tag, bucket a, then 37 bits that hold a
  // value, or bucket b and a 13-bit amount (see the header comment).
  static constexpr int kTagBits = 3;
  static constexpr int kBucketBits = 24;
  static constexpr int kHeadBits = kTagBits + kBucketBits;  // tag + bucket a
  static constexpr int kValueBits = 64 - kHeadBits;         // 37
  static constexpr int kAmountShift = kHeadBits + kBucketBits;
  static constexpr int kAmountBits = 64 - kAmountShift;  // 13

 public:
  /// Journal entry kinds. Values start at 1: a zero cell is the
  /// not-yet-deposited state the replayer spins on.
  enum class Kind : int {
    kCounterInc = 1,  ///< +1 on shard_a's ledger balance
    kMaxWrite = 2,    ///< max-merge v into shard_a's max
    kTransfer = 3,    ///< move v from shard_a's to shard_b's ledger balance
    kResize = 4,      ///< routing grew to v shard slots (appended after the
                      ///< migration replay, before the epoch publish).
                      ///< INFORMATIONAL: the snapshot facet is bucketed under
                      ///< the INITIAL mask forever, so replayers skip this
                      ///< marker — it exists for audit tools and tests.
  };

  /// One journal cell: an entry's packed word, or a wide transfer's amount.
  using Cell = std::atomic<uint64_t>;

  /// Bucket indices must be below this (C2Store::validate caps
  /// initial_shards here, so no keyed write can fail in append).
  static constexpr int kMaxBuckets = 1 << kBucketBits;
  /// Transfer amounts in this range fit the header; others take two cells.
  static constexpr int64_t kInlineMin = -(int64_t{1} << (kAmountBits - 1));
  static constexpr int64_t kInlineMax = (int64_t{1} << (kAmountBits - 1)) - 1;
  /// Max-write and resize values must be at most this.
  static constexpr int64_t kMaxValue = (int64_t{1} << kValueBits) - 1;

  struct EntryView {
    Kind kind;
    int shard_a;
    int shard_b;  ///< 0 unless kind == kTransfer
    int64_t v;
    int cells;  ///< tickets the entry occupies: 2 for a wide transfer, else 1
  };

  KeyedVersionDigest() = default;

  /// Appends one entry; returns its (first) ticket. The tail fetch&add is the
  /// operation's linearization point on the snapshot facet — the entry's
  /// content is fixed here (the deposit below merely publishes it).
  int64_t append(Kind kind, int shard_a, int shard_b, int64_t v) {
    C2SL_CHECK(shard_a >= 0 && shard_a < kMaxBuckets && shard_b >= 0 &&
                   shard_b < kMaxBuckets,
               "journal shard index out of range");
    uint64_t word = static_cast<uint64_t>(kind) |
                    (static_cast<uint64_t>(shard_a) << kTagBits);
    bool wide = false;
    switch (kind) {
      case Kind::kCounterInc:
        C2SL_CHECK(v == 1 && shard_b == 0, "journal inc entry must be +1");
        break;
      case Kind::kMaxWrite:
      case Kind::kResize:
        C2SL_CHECK(v >= 0 && v <= kMaxValue && shard_b == 0,
                   "journal value out of range");
        word |= static_cast<uint64_t>(v) << kHeadBits;
        break;
      case Kind::kTransfer:
        word |= static_cast<uint64_t>(shard_b) << kHeadBits;
        wide = v < kInlineMin || v > kInlineMax;
        if (wide) {
          word = (word & ~kTagMask) | kWideTransferTag;
        } else {
          word |= static_cast<uint64_t>(v) << kAmountShift;
        }
        break;
    }
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — ticket issue (both of a wide transfer's);
    // linearization point of the keyed write on the snapshot facet
    int64_t t = tail_.fetch_add(wide ? 2 : 1, std::memory_order_seq_cst);
    if (wide) deposit(t + 1, static_cast<uint64_t>(v));  // never 0: wide
    deposit(t, word);
    return t;
  }

  /// The version-digest read: one FAA(0) on the tail — wait-free, and the
  /// linearization point of any snapshot that replays up to the result.
  int64_t version() {
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — FAA(0) read IS the snapshot's atomic step
    return tail_.fetch_add(0, std::memory_order_seq_cst);
  }

  /// Entry whose first ticket is `ticket` (< some tail read). Spins until
  /// the ticket owner's deposit is published — bounded by in-flight writers
  /// (see header).
  EntryView entry(int64_t ticket) {
    uint64_t m = await(ticket);
    int a = static_cast<int>((m >> kTagBits) & kBucketMask);
    uint64_t tag = m & kTagMask;
    switch (tag) {
      case static_cast<uint64_t>(Kind::kCounterInc):
        return EntryView{Kind::kCounterInc, a, 0, 1, 1};
      case static_cast<uint64_t>(Kind::kTransfer):
        return EntryView{Kind::kTransfer, a, bucket_b(m),
                         static_cast<int64_t>(m) >> kAmountShift, 1};
      case kWideTransferTag:
        // The amount cell was stored before the header, so it is already
        // visible: this await returns at once.
        return EntryView{Kind::kTransfer, a, bucket_b(m),
                         static_cast<int64_t>(await(ticket + 1)), 2};
      default:  // kMaxWrite, kResize
        return EntryView{static_cast<Kind>(tag), a, 0,
                         static_cast<int64_t>(m >> kHeadBits), 1};
    }
  }

  /// Tickets issued: one per keyed write, two per wide transfer
  /// (diagnostics; may exceed the published prefix while deposits are in
  /// flight). Never on the snapshot path.
  int64_t tickets_issued() const {
    // c2sl-atomic: load relaxed — diagnostics-only tail peek
    return tail_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kTagMask = (uint64_t{1} << kTagBits) - 1;
  static constexpr uint64_t kBucketMask = (uint64_t{1} << kBucketBits) - 1;
  /// Header tag of a wide transfer (outside the public Kind values).
  static constexpr uint64_t kWideTransferTag = 5;

  static int bucket_b(uint64_t m) {
    return static_cast<int>((m >> kHeadBits) & kBucketMask);
  }

  void deposit(int64_t ticket, uint64_t w) {
    // c2sl-atomic: store release — entry publish: a replayer's acquire load
    // of the header carries visibility of everything the entry holds
    cells_.cell(static_cast<size_t>(ticket)).store(w, std::memory_order_release);
  }

  uint64_t await(int64_t ticket) {
    Cell& c = cells_.cell(static_cast<size_t>(ticket));
    uint64_t m;
    // c2sl-atomic: load acquire — deposit-publication spin; pairs with the
    // release store in deposit
    while ((m = c.load(std::memory_order_acquire)) == 0) {
    }
    return m;
  }

  /// Cells start at 0 (not deposited): SegmentedArray value-initialises
  /// every segment.
  SegmentedArray<Cell> cells_;
  std::atomic<int64_t> tail_{0};
};

}  // namespace c2sl::rt
