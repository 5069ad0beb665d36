// RoutingEpoch — the epoch spine behind C2Store's online shard resizing: a
// monotone sequence of published routing tables built from one-shot test&set
// claims and plain register writes only (no CAS), on the SegmentedArray spine.
//
// A routing EPOCH is a power-of-two shard count. Epoch 0 is fixed at
// construction; each successful resize installs epoch e+1 with a strictly
// larger count. Because counts are powers of two and only grow, the masks
// NEST: for any key hash h, h & (S'-1) is either h & (S-1) (the key stays) or
// an index >= S (the key moves to a fresh slot). That nesting is what makes
// live migration by idempotent monotone replay possible at all — the old slot
// remains a valid lower bound for every key that stayed, and a moved key's
// state can be re-applied to its new slot with write_max / counter re-add
// without ever needing a "remove" (the per-key objects are monotone).
//
// The whole hand-off is driven by ONE atomic stamp word:
//
//   stamp == 2e     epoch e is published; no resize in flight
//   stamp == 2e+1   epoch e is published; epoch e+1 is INSTALLING (the unique
//                   claim winner of cell e+1 is migrating state)
//
// The stamp is monotone and every transition is a plain register store by the
// unique claim winner — 2e -> 2e+1 (install) and 2e+1 -> 2e+2 (publish) — so
// no RMW stronger than the one-shot claim is ever needed on it. The claim is
// the runtime's one test&set cell, rt::NativeReadableTAS
// (runtime/publish_once.h), the same cell that claims segment and shard-slot
// publication. Claim serialisation is the publication argument verbatim: a
// resizer must observe stamp == 2e (even) before it may try to claim cell
// e+1, and the cell's test&set admits exactly one winner ever, so a stale
// resizer (one that read an old even stamp) always LOSES the test&set for the
// cell it targets — the claims cannot interleave across epochs.
//
// Failure semantics (the kill-style recovery contract, pinned by
// tests/resize_test.cpp):
//   * claim winner throws during migration  -> it poisons its cell; the store
//     keeps serving epoch e forever and later resizes fail with kPoisoned;
//   * claim winner simply disappears        -> the stamp stays odd; the store
//     keeps serving epoch e and later resizes return kInFlight forever.
// In both cases every data op keeps succeeding on the published table — an
// abandoned resize never wedges readers or writers, only future resizes.
//
// Memory-order notes: the claim test&set and BOTH stamp
// transitions are seq_cst because they form the resizer's half of the Dekker
// handshake with writers — a writer's post-op seq_cst stamp recheck
// (service/c2store.h) must totally order against the install store, or a
// write landing in an old slot during the dual-write window could be missed
// by the migration replay AND skip its own re-application. The per-epoch
// shard count is published before the install store and read after a stamp
// load that observed it, so its loads can stay relaxed. Epoch 0's count is a
// constructor constant, so shards_of(0) reads no word.
//
// One spine for the store and its checker: the spine is written over a
// memory policy (runtime/native_mem.h). RoutingEpoch is the NativeMem
// instantiation; the sim twin (svc::SimRoutingEpoch) runs the SimMem one. The
// codec (EpochCodec: statuses, claim token, stamp encoding, settle loop) does
// not depend on the policy, as JournalCodec does not for the journal.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/publish_once.h"
#include "runtime/segmented_array.h"
#include "telemetry/prim_profile.h"
#include "util/assert.h"

namespace c2sl::rt {

/// The resize protocol's policy-free half: statuses, the claim token, the
/// stamp codec and the writers' settle loop (header comment).
class EpochCodec {
 public:
  /// Outcome of try_begin() (and of the service-level resize built on it).
  enum class ResizeStatus {
    kInstalled,  ///< this caller won the claim; it now owns the migration
    kNoop,       ///< new count <= published count; nothing to do
    kInFlight,   ///< another resize is installing (or was abandoned mid-claim)
    kPoisoned,   ///< an earlier migration threw; resizing is permanently off
  };

  /// Claim token for one installing epoch. Returned by try_begin(); the
  /// holder must finish with publish() or poison() — dropping it models a
  /// killed resizer (the abandoned-claim recovery test does exactly that).
  struct Claim {
    int64_t epoch = -1;  ///< the NEW epoch index being installed
    int shards = 0;      ///< the NEW shard count
    bool valid() const { return epoch > 0; }
  };

  static constexpr bool installing(int64_t stamp) { return (stamp & 1) != 0; }
  /// The newest PUBLISHED epoch encoded in `stamp` (2e and 2e+1 -> e).
  static constexpr int64_t published_epoch(int64_t stamp) { return stamp >> 1; }
  /// The newest epoch with an installed table: the installing one if the
  /// stamp is odd, else the published one. Writers dual-apply under THIS
  /// epoch's mask so the migration replay can never finish behind them.
  static constexpr int64_t newest_epoch(int64_t stamp) {
    return (stamp + 1) >> 1;
  }
  /// The stamp that opens `epoch`'s install (2e-1: epoch-1 still published).
  static constexpr int64_t install_stamp(int64_t epoch) { return 2 * epoch - 1; }
  /// The stamp that publishes `epoch` (2e: no resize in flight).
  static constexpr int64_t publish_stamp(int64_t epoch) { return 2 * epoch; }

  /// The writer-side Dekker recheck, run AFTER a mutating op's primary
  /// application under (`applied_epoch`, `applied_slot`): read `stamp()`;
  /// while it exposes an epoch newer than the last one applied under, route
  /// the key with `slot_of(epoch)`, re-apply the op with `apply(slot)` if the
  /// slot moved (an idempotent monotone merge), and re-read. In the seq_cst
  /// total order either the migration's replay read captured the primary
  /// write, or this recheck sees the install and re-applies — a write never
  /// falls through a migration (docs/PROOFS.md works the two cases). The
  /// store's refs (ShardRef::settle) and the simulated twin
  /// (svc::SimRoutingEpoch) both instantiate this loop.
  template <typename Stamp, typename SlotOf, typename Apply>
  static void settle(int64_t applied_epoch, int applied_slot,
                     const Stamp& stamp, const SlotOf& slot_of,
                     const Apply& apply) {
    int64_t st = stamp();
    while (newest_epoch(st) != applied_epoch) {
      applied_epoch = newest_epoch(st);
      int s = slot_of(applied_epoch);
      if (s != applied_slot) {
        applied_slot = s;
        apply(s);
      }
      // Confirm no newer install slipped in between the re-application and
      // here; a stable stamp proves (in the seq_cst total order) that any
      // later migration's replay must observe the re-applied slot state.
      st = stamp();
    }
  }
};

/// The epoch spine itself over memory policy `Mem` (header comment).
template <typename Mem>
class BasicRoutingEpoch : public EpochCodec {
 public:
  explicit BasicRoutingEpoch(int initial_shards) : initial_shards_(initial_shards) {
    C2SL_CHECK(initial_shards > 0 &&
                   (initial_shards & (initial_shards - 1)) == 0,
               "shard count must be a power of two");
  }

  // --- stamp reads ----------------------------------------------------------

  /// Advisory stamp peek for the ref-revalidation hot path: a stale value is
  /// harmless (correctness rides on the writer's seq_cst recheck), so this
  /// costs one relaxed load.
  int64_t stamp_relaxed() const {
    // c2sl-atomic: load relaxed — advisory revalidation peek; a stale read
    // only delays a rebind, never misroutes (the seq_cst recheck decides)
    return stamp_.load(std::memory_order_relaxed);
  }

  /// The writer-side Dekker recheck: totally ordered against the install
  /// store, so a writer that raced the migration window is guaranteed to see
  /// the odd stamp (or the migration replay is guaranteed to see its write).
  int64_t stamp() const {
    // c2sl-atomic: load seq_cst — the writer half of the install/recheck
    // Dekker pair; must totally order against the resizer's install store
    return stamp_.load(std::memory_order_seq_cst);
  }

  /// Shard count of `epoch`. Only valid for epochs whose install store was
  /// observed through a stamp read (published_epoch / newest_epoch of a read
  /// stamp) — that observation carries the count's visibility. Epoch 0's
  /// count is the constructor's constant: no word is read.
  int shards_of(int64_t epoch) const {
    if (epoch == 0) return initial_shards_;
    const EpochCell* c = cells_.peek(static_cast<size_t>(epoch));
    C2SL_CHECK(c != nullptr, "epoch cell read before its install");
    // c2sl-atomic: load relaxed — ordered by the stamp read that exposed this
    // epoch (install stores the count before the stamp transition)
    int64_t s = c->shards.load(std::memory_order_relaxed);
    C2SL_CHECK(s > 0, "epoch cell read before its install");
    return static_cast<int>(s);
  }

  /// Published epoch + its shard count (one seq_cst stamp load).
  int64_t current_epoch() const { return published_epoch(stamp()); }
  int current_shards() const { return shards_of(current_epoch()); }

  // --- the resize protocol --------------------------------------------------

  /// Tries to claim the next epoch with `new_shards` slots. On kInstalled the
  /// caller owns the migration and MUST eventually call publish() or
  /// poison(); any other status leaves the spine untouched.
  ResizeStatus try_begin(int new_shards, Claim& out) {
    C2SL_CHECK(new_shards > 0 && (new_shards & (new_shards - 1)) == 0,
               "shard count must be a power of two");
    // c2sl-atomic: load seq_cst — resize admission read; pairs with the
    // install/publish stores below (part of the claim-serialisation argument)
    int64_t st = stamp_.load(std::memory_order_seq_cst);
    int64_t next = published_epoch(st) + 1;
    if (installing(st)) {
      const EpochCell* installing_cell = cells_.peek(static_cast<size_t>(next));
      // c2sl-atomic: load seq_cst — cold poison check; cross-checked with the
      // stamp by failed resizers, so it stays at the strongest order
      bool dead = installing_cell != nullptr &&
                  installing_cell->poisoned.load(std::memory_order_seq_cst);
      return dead ? ResizeStatus::kPoisoned : ResizeStatus::kInFlight;
    }
    if (new_shards <= shards_of(published_epoch(st))) return ResizeStatus::kNoop;
    EpochCell& cell = cells_.cell(static_cast<size_t>(next));
    // The one-shot resize claim: exactly one resizer per epoch; a stale
    // claimant (old stamp) always loses here.
    if (cell.claim.test_and_set() != 0) {
      return ResizeStatus::kInFlight;
    }
    // Install: count first, stamp second, both seq_cst — the stamp store
    // opens the writers' dual-write window (the Dekker half the recheck in
    // service/c2store.h pairs with), and any stamp observer must already see
    // the count.
    // c2sl-atomic: store seq_cst — epoch table install; must precede the
    // stamp transition in the single total order
    cell.shards.store(new_shards, std::memory_order_seq_cst);
    // c2sl-atomic: store seq_cst — install stamp 2e -> 2e+1; the resizer half
    // of the Dekker pair with every writer's post-op recheck
    stamp_.store(install_stamp(next), std::memory_order_seq_cst);
    C2SL_TEL_EVENT(tel::TelEvent::kResizeClaim);
    out = Claim{next, new_shards};
    return ResizeStatus::kInstalled;
  }

  /// Publishes the claimed epoch after migration: stamp 2e+1 -> 2e+2. From
  /// here every newly bound ref routes under the new mask.
  void publish(const Claim& c) {
    C2SL_CHECK(c.valid(), "publish of an invalid resize claim");
    // c2sl-atomic: store seq_cst — publish stamp 2e+1 -> 2e+2; ends the
    // dual-write window, so it must join the same total order as the install
    stamp_.store(publish_stamp(c.epoch), std::memory_order_seq_cst);
    C2SL_TEL_EVENT(tel::TelEvent::kEpochPublish);
  }

  /// Records a failed migration: the store keeps serving the old epoch and
  /// every later resize fails with kPoisoned (clean error, never a wedge).
  void poison(const Claim& c) {
    C2SL_CHECK(c.valid(), "poison of an invalid resize claim");
    // c2sl-atomic: store seq_cst — cold failure flag; cross-checked with the
    // odd stamp by later resizers, so it stays at the strongest order
    cells_.cell(static_cast<size_t>(c.epoch))
        .poisoned.store(true, std::memory_order_seq_cst);
  }

 private:
  /// One epoch's published state. claim is the one-shot test&set (consensus
  /// number 2); shards and poisoned are plain registers. Value-initialised by
  /// the array, so shards == 0 doubles as "not installed". Cell 0 stays
  /// unused: epoch 0 has no claim and its count is initial_shards_.
  struct EpochCell {
    BasicReadableTAS<Mem> claim;
    typename Mem::template Word<int64_t> shards{0};
    typename Mem::template Word<bool> poisoned{false};
  };

  typename Mem::template Array<EpochCell> cells_;
  typename Mem::template Word<int64_t> stamp_{0};
  const int initial_shards_;
};

using RoutingEpoch = BasicRoutingEpoch<NativeMem>;

}  // namespace c2sl::rt
