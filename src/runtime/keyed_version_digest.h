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
// Entry layout: one std::atomic<uint64_t> cell per entry. Bits 0-2 hold the
// kind tag (0 = not deposited), the next 24 bits bucket a, and
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
// One codec for the store and its checker: encode/decode and the two
// protocols over them (append_via, entry_via) are static, parameterised by
// the cell store. The simulated twin (svc::SimKeyedSnapshot) runs them on
// checker-visible cells and folds with the store's own detail::SnapReplay, so
// the explored trees hold the native packed words, narrow and wide alike.
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

  /// An entry as append deposits it: the header word, and the tickets it
  /// occupies (2 for a wide transfer, whose amount takes the second cell).
  struct Encoded {
    uint64_t header;
    int cells;
  };

  /// Packs one entry, with the range checks every keyed write passes. A wide
  /// transfer's header carries no amount: the depositor stores v itself in
  /// the entry's second cell.
  static Encoded encode(Kind kind, int shard_a, int shard_b, int64_t v) {
    C2SL_CHECK(shard_a >= 0 && shard_a < kMaxBuckets && shard_b >= 0 &&
                   shard_b < kMaxBuckets,
               "journal shard index out of range");
    uint64_t word = static_cast<uint64_t>(kind) |
                    (static_cast<uint64_t>(shard_a) << kTagBits);
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
        if (v < kInlineMin || v > kInlineMax) {
          return Encoded{(word & ~kTagMask) | kWideTransferTag, 2};
        }
        word |= static_cast<uint64_t>(v) << kAmountShift;
        break;
    }
    return Encoded{word, 1};
  }

  /// Unpacks a deposited (non-zero) header. A wide transfer comes back with
  /// cells == 2 and v == 0: its amount is the entry's second cell.
  static EntryView decode(uint64_t header) {
    int a = static_cast<int>((header >> kTagBits) & kBucketMask);
    uint64_t tag = header & kTagMask;
    switch (tag) {
      case static_cast<uint64_t>(Kind::kCounterInc):
        return EntryView{Kind::kCounterInc, a, 0, 1, 1};
      case static_cast<uint64_t>(Kind::kTransfer):
        return EntryView{Kind::kTransfer, a, bucket_b(header),
                         static_cast<int64_t>(header) >> kAmountShift, 1};
      case kWideTransferTag:
        return EntryView{Kind::kTransfer, a, bucket_b(header), 0, 2};
      default:
        // No deposit carries tag 0, 6 or 7: a reader that sees one is off an
        // entry boundary (e.g. inside a wide transfer), so fail closed
        // rather than fold garbage.
        C2SL_ASSERT_MSG(tag == static_cast<uint64_t>(Kind::kMaxWrite) ||
                            tag == static_cast<uint64_t>(Kind::kResize),
                        "journal cell is not an entry header");
        return EntryView{static_cast<Kind>(tag), a, 0,
                         static_cast<int64_t>(header >> kHeadBits), 1};
    }
  }

  /// The append protocol over any cell store: encode, draw every ticket the
  /// entry needs with ONE `draw(cells)` (the fetch&add that linearizes the
  /// write), then `deposit(ticket, word)` a wide transfer's amount cell
  /// BEFORE its header, so a replayer that sees the header finds the amount.
  /// Returns the entry's first ticket. append() runs it on the native cells;
  /// the simulated twin (svc::SimKeyedSnapshot) on checker-visible ones.
  template <typename Draw, typename Deposit>
  static int64_t append_via(Kind kind, int shard_a, int shard_b, int64_t v,
                            const Draw& draw, const Deposit& deposit) {
    const Encoded e = encode(kind, shard_a, shard_b, v);
    int64_t t = draw(e.cells);
    if (e.cells == 2) deposit(t + 1, static_cast<uint64_t>(v));  // never 0
    deposit(t, e.header);
    return t;
  }

  /// The read side over any cell store: `load(ticket)` returns the cell's
  /// deposited word (waiting out an in-flight deposit); a wide transfer's
  /// amount is loaded from the cell after its header.
  template <typename Load>
  static EntryView entry_via(int64_t ticket, const Load& load) {
    EntryView e = decode(load(ticket));
    if (e.cells == 2) e.v = static_cast<int64_t>(load(ticket + 1));
    return e;
  }

  /// Appends one entry; returns its (first) ticket. The tail fetch&add is the
  /// operation's linearization point on the snapshot facet — the entry's
  /// content is fixed there (the deposits merely publish it).
  int64_t append(Kind kind, int shard_a, int shard_b, int64_t v) {
    return append_via(
        kind, shard_a, shard_b, v,
        [this](int cells) {
          C2SL_TEL_PRIM_FAA();
          // c2sl-atomic: faa seq_cst — ticket issue (both of a wide transfer's);
          // linearization point of the keyed write on the snapshot facet
          return tail_.fetch_add(cells, std::memory_order_seq_cst);
        },
        [this](int64_t t, uint64_t w) { deposit(t, w); });
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
  /// (see header). A wide transfer's amount cell was stored before its
  /// header, so the second await returns at once.
  EntryView entry(int64_t ticket) {
    return entry_via(ticket, [this](int64_t t) { return await(t); });
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
