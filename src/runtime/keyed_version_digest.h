// KeyedVersionDigest — the write journal behind C2Session::snapshot(): a
// strongly-linearizable multi-key read surface built from fetch&add and plain
// registers only (no CAS, no capacity knobs), on the SegmentedArray spine.
//
// Why a journal: a per-key-version double collect is linearizable but NOT
// strongly linearizable — whether a collect "was consistent" is decided by
// reads the scanner performs later (docs/PROOFS.md, "Multi-key snapshots",
// works the two-scanner anomaly). The paper's way out (§3.1/§3.2) is to make
// every operation linearize at ONE step of its own on ONE word, so the
// multi-key state is packed behind a single fetch&add TAIL:
//
//   * every keyed write appends one immutable entry to a ticket-indexed
//     journal — the ticket fetch&add on the tail word IS the write's
//     linearization point (fixed own-step);
//   * a snapshot reads the tail once with one seq_cst load — its
//     linearization point — and deterministically REPLAYS entries below
//     that ticket into per-shard accumulators. Two snapshots that read the
//     same tail return identical vectors; prefix closure holds because
//     every op's point is its own step.
//
// The tail word is the class's "version digest": it advances by one per keyed
// write (two for a wide transfer, below) and bounds the replay exactly.
//
// Entry layout: one 64-bit cell per entry. Bits 0-2 hold the kind tag (0 =
// not deposited), the next 24 bits bucket a, and the remaining 37 bits depend
// on the kind:
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
// One journal for the store and its checker: the class is written over a
// memory policy (runtime/native_mem.h). KeyedVersionDigest is the NativeMem
// instantiation; the sim twin (svc::SimKeyedSnapshot) runs the SimMem one and
// folds with the store's detail::SnapReplay. The codec (JournalCodec) does not
// depend on the policy, so both share one Kind and one EntryView.
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
// each deposit is one store, not an RMW, so the contended word is the tail.
//
// Growth: the journal is unbounded (one cell per keyed write, two per wide
// transfer). A cell is a plain word reached through Mem::ref, so a native
// segment is calloc'd zero pages: publishing one costs one allocation, and
// only the pages under written cells are resident. The appender that takes
// the first ticket of an 8192-cell chunk prefaults the chunk two ahead after
// its deposit (SegmentedArray::populate; no value changes, so the checker
// has no step for it), which keeps first-touch page faults off the tickets
// that replayers wait on. Truncation below the slowest session cursor is the
// ROADMAP follow-up; sessions keep replay cursors so that becomes a local
// change.
#pragma once

#include <cstdint>

#include "runtime/native_mem.h"
#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

/// The journal's entry codec: the packed cell layout (header comment) and
/// the range checks every keyed write passes.
class JournalCodec {
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

 private:
  static constexpr uint64_t kTagMask = (uint64_t{1} << kTagBits) - 1;
  static constexpr uint64_t kBucketMask = (uint64_t{1} << kBucketBits) - 1;
  /// Header tag of a wide transfer (outside the public Kind values).
  static constexpr uint64_t kWideTransferTag = 5;

  static int bucket_b(uint64_t m) {
    return static_cast<int>((m >> kHeadBits) & kBucketMask);
  }
};

/// The journal itself over memory policy `Mem` (header comment).
template <typename Mem>
class BasicKeyedVersionDigest : public JournalCodec {
 public:
  /// One journal cell: an entry's packed word, or a wide transfer's amount.
  /// A RefWord (a plain word natively), so a journal segment is zero pages
  /// until its cells are written.
  using Cell = typename Mem::template RefWord<uint64_t>;
  /// Tickets per prefault chunk (64 KiB of cells), and how many chunks
  /// ahead of the tail the prefault runs (header comment).
  static constexpr int64_t kPrefaultChunk = 8192;
  static constexpr int64_t kPrefaultAhead = 2;

  BasicKeyedVersionDigest() = default;

  /// Appends one entry; returns its (first) ticket. Every ticket the entry
  /// needs comes from ONE tail fetch&add, the operation's linearization point
  /// on the snapshot facet — the entry's content is fixed there (the deposits
  /// merely publish it). A wide transfer's amount cell is deposited BEFORE
  /// its header, so a replayer that sees the header finds the amount.
  int64_t append(Kind kind, int shard_a, int shard_b, int64_t v) {
    const Encoded e = encode(kind, shard_a, shard_b, v);
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — ticket issue (both of a wide transfer's);
    // linearization point of the keyed write on the snapshot facet
    const int64_t t = tail_.fetch_add(e.cells, std::memory_order_seq_cst);
    if (e.cells == 2) deposit(t + 1, static_cast<uint64_t>(v));  // never 0
    deposit(t, e.header);
    // The entry that holds a chunk's first ticket prefaults the chunk
    // kPrefaultAhead further on, after its own deposit, so appenders (and
    // the replayers waiting on their tickets) rarely take a page fault.
    const int64_t last = t + e.cells - 1;
    if (last % kPrefaultChunk < e.cells) {
      const int64_t ahead = last / kPrefaultChunk + kPrefaultAhead;
      cells_.populate(static_cast<size_t>(ahead * kPrefaultChunk), kPrefaultChunk);
    }
    return t;
  }

  /// The version-digest read: one seq_cst load of the tail — wait-free, and
  /// the linearization point of any snapshot that replays up to the result.
  int64_t version() {
    // c2sl-atomic: load seq_cst — the snapshot's atomic step: every ticket is
    // a seq_cst FAA, so the load reads the last one before it in S
    return tail_.load(std::memory_order_seq_cst);
  }

  /// Entry whose first ticket is `ticket` (< some tail read). Spins until
  /// the ticket owner's deposit is published — bounded by in-flight writers
  /// (see header). A wide transfer's amount cell was stored before its
  /// header, so the second await returns at once.
  EntryView entry(int64_t ticket) {
    EntryView e = decode(await(ticket));
    if (e.cells == 2) e.v = static_cast<int64_t>(await(ticket + 1));
    return e;
  }

  /// Tickets issued: one per keyed write, two per wide transfer
  /// (diagnostics; may exceed the published prefix while deposits are in
  /// flight). Never on the snapshot path.
  int64_t tickets_issued() const {
    // c2sl-atomic: load relaxed — diagnostics-only tail peek
    return tail_.load(std::memory_order_relaxed);
  }

 private:
  void deposit(int64_t ticket, uint64_t w) {
    // c2sl-atomic: store release — entry publish: a replayer's acquire load
    // of the header carries visibility of everything the entry holds
    Mem::ref(cells_.cell(static_cast<size_t>(ticket)))
        .store(w, std::memory_order_release);
  }

  uint64_t await(int64_t ticket) {
    Cell& c = cells_.cell(static_cast<size_t>(ticket));
    uint64_t m;
    // c2sl-atomic: load acquire — deposit-publication spin; pairs with the
    // release store in deposit
    while ((m = Mem::ref(c).load(std::memory_order_acquire)) == 0) {
    }
    return m;
  }

  /// Cells start at 0 (not deposited): a native segment is calloc'd zero
  /// pages, a SimMem cell a word constructed at 0.
  typename Mem::template Array<Cell> cells_;
  typename Mem::template Word<int64_t> tail_{0};
};

using KeyedVersionDigest = BasicKeyedVersionDigest<NativeMem>;

}  // namespace c2sl::rt
