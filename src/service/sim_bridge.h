// Sim-mode C2Store bridge: small sharded configurations of the service layer
// rebuilt over the *simulated* paper constructions, so the bounded model
// checkers (verify/lin_checker, verify/strong_lin) can exercise the service's
// routing and aggregate algorithms on full execution trees.
//
// Four facades, mirroring the native service's verification story:
//
//   * SimKeyedStore — the per-key service path through the store's own
//     hashing and masking (hash_key + slot_of, service/shard_router.h, the
//     functions C2Store routes by): keyed max-register and counter ops
//     recorded under per-shard object names ("<name>.s<k>.max" /
//     "<name>.s<k>.ctr"). Strong linearizability is local, so checking each
//     shard facet on the shared execution tree certifies the whole keyed
//     configuration; this is the configuration the checker PASSES
//     (tests/service_sim_test.cpp).
//
//   * SimGlobalMax — the digest design behind C2Store::global_max(): WriteMax
//     routes the value to a shard register AND a single digest register;
//     GlobalMax reads only the digest (one FAA(0) step). Strongly linearizable
//     — the write's linearization point is its own digest step.
//
//   * SimCounterSumDigest — the digest design behind C2Store::counter_sum()
//     (runtime/counter_sum_digest.h): Inc lands in a per-shard Thm 9 counter
//     AND fetch&adds one digest FAA register (shard first — the digest never
//     leads the keyed read paths, same pinned cross-facet order as the max
//     digest); Read is a single FAA(0) on the digest. Strongly linearizable —
//     every Inc linearizes at its own digest FAA step, every Read at its
//     FAA(0), fixed own-steps. This is the sum the double-collect scan CANNOT
//     provide (refutation below), the §3.2 pack-into-one-FAA-word move in its
//     degenerate sum form (addition is its own combiner, so the per-process
//     components share the accumulator).
//
//   * SimShardedMaxRegister / SimShardedCounter — the aggregate-SCAN
//     experiments. Reads collect per-shard values: with `double_collect` the
//     read repeats until two consecutive collects of the monotone values
//     coincide — linearizable (the stable pair pins a single logical instant)
//     but NOT strongly linearizable: the linearization point depends on
//     future schedule steps, so no prefix-closed assignment exists and the
//     checker refutes it. With `double_collect = false` (naive one-pass scan)
//     the read is not even linearizable. Both refutations are pinned tests —
//     they are exactly why C2Store serves global_max from a digest word, the
//     same reason the paper packs its snapshot into one fetch&add register.
//   * SimLaneRegistry — the lane lifecycle behind C2Store::open_session()
//     (service/lane_registry.h) rebuilt over the simulated constructions:
//     the constructor fills an SLSet with every lane through a solo context;
//     Acquire is one SLSet::Take, reporting -1 when the set stabilises empty;
//     Release is SLSet::Put. The checker verifies acquire/release strongly
//     linearizable against verify::LaneRegistrySpec
//     (tests/lane_registry_test.cpp).
//
//   * SimHandoffQueue — the sim twin of the FIFO handoff queue behind
//     blocking open_session() (runtime/handoff_queue.h): waiters register by
//     one Tail fetch&add (the enqueue's linearization point) and announce
//     their id on their ticket's swap cell; a handoff commits to the oldest
//     ticket by one Head fetch&add and collects the waiter id from the cell.
//     Both sides linearize at their own FAA — fixed own-steps — so the
//     checker verifies the enqueue/handoff facets strongly linearizable
//     against verify::QueueSpec (tests/handoff_queue_test.cpp). The data
//     direction is inverted relative to the native queue (there the DELIVERER
//     deposits a lane and the waiter collects; here the WAITER deposits its
//     id and the handoff collects) because the checkable response is "which
//     waiter got served" — the commitment structure under test is identical.
//     The `scan_delivery` variant replaces the Head fetch&add with
//     Herlihy–Wing's publication-order scan (take the first ANNOUNCED
//     waiter): its delivery target is decided by future cell writes, and the
//     checker REFUTES it (pinned negative control, same schedule family and
//     verdict as the baselines/herlihy_wing_queue positive control).
//
//   * SimSegmentedTasArray — the sim twin of the native publish-once
//     protocol (rt::PublishOnce::get in runtime/publish_once.h, which
//     publishes SegmentedArray segments and C2Store shard slots alike), as
//     the segmented array uses it, at base-object step
//     granularity: doubling segments (base 1 here, so the trees stay small:
//     segment s covers [2^s − 1, 2^(s+1) − 1)), each published by the winner
//     of a per-segment claim test&set through a register write, with cells
//     INITIALISED BEFORE the publish. Uninitialised cells model real
//     uninitialised memory: they read as garbage (an adversarial 1). The
//     checker verifies each index facet of the publication-order variant
//     strongly linearizable, and REFUTES the `publish_before_init` variant —
//     a reader that passes the publication gate early observes garbage, and
//     the winner's late cell-initialisation then erases observed state, so
//     some histories are not even linearizable (tests/service_sim_test.cpp
//     pins both verdicts). This is the mechanised justification for the
//     init-then-publish order in rt::PublishOnce::get.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/fetch_increment.h"
#include "core/max_register_faa.h"
#include "core/object_api.h"
#include "core/readable_tas.h"
#include "core/sl_set.h"
#include "primitives/faa.h"
#include "service/shard_router.h"

namespace c2sl::svc {

class SimKeyedStore {
 public:
  SimKeyedStore(sim::World& world, std::string name, int n, int shards);

  // Each call is recorded as one high-level op on its shard's facet.
  void max_write(sim::Ctx& ctx, uint64_t key, int64_t v);
  int64_t max_read(sim::Ctx& ctx, uint64_t key);
  int64_t counter_inc(sim::Ctx& ctx, uint64_t key);
  int64_t counter_read(sim::Ctx& ctx, uint64_t key);

  int shard_of(uint64_t key) const { return slot_of(hash_key(key), shards_); }
  std::string max_object(int shard) const;
  std::string ctr_object(int shard) const;

 private:
  std::string name_;
  int shards_;
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;
  std::vector<std::unique_ptr<core::AtomicReadableTasArray>> ts_;
  std::vector<std::unique_ptr<core::FetchIncrement>> ctrs_;
};

class SimGlobalMax : public core::ConcurrentObject {
 public:
  SimGlobalMax(sim::World& world, std::string name, int n, int shards);

  void write_max(sim::Ctx& ctx, int64_t v);  ///< shard write, then digest write
  int64_t read_max(sim::Ctx& ctx);           ///< digest read only
  /// Direct read of one shard register ("ReadShard" under apply). Not part of
  /// the service surface — exposed so tests/service_sim_test.cpp can pin the
  /// cross-facet write order (shard first, digest second): the digest must
  /// never run ahead of every shard register, and the shard register may
  /// briefly run ahead of the digest.
  int64_t read_shard_max(sim::Ctx& ctx, int s);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;
  std::unique_ptr<core::MaxRegisterFAA> digest_;
};

/// Sim twin of the counter-sum digest behind C2Store::counter_sum() (see
/// header comment above). Incs route to per-shard Thm 9 counters by calling
/// process id (like SimShardedCounter, so the two designs face identical
/// schedules) and then take one digest FAA step; Read is one digest FAA(0).
class SimCounterSumDigest : public core::ConcurrentObject {
 public:
  SimCounterSumDigest(sim::World& world, std::string name, int shards);

  void inc(sim::Ctx& ctx);      ///< shard counter win, then digest fetch&add
  int64_t read(sim::Ctx& ctx);  ///< digest FAA(0) only
  /// Direct read of one shard counter ("ReadShard" under apply). Not part of
  /// the service surface — exposed so tests/service_sim_test.cpp can pin the
  /// cross-facet write order (shard first, digest second): the digest must
  /// never run ahead of the shard counters, and a shard counter may briefly
  /// run ahead of the digest.
  int64_t read_shard(sim::Ctx& ctx, int s);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  std::vector<std::unique_ptr<core::AtomicReadableTasArray>> ts_;
  std::vector<std::unique_ptr<core::FetchIncrement>> ctrs_;
  sim::Handle<prim::FetchAddInt> digest_;
};

/// Sim twin of an op counter kept in lane cells (telemetry/telemetry.h): each
/// lane (== calling process here) keeps its running op count in a single-owner
/// plain REGISTER cell (LaneTelemetry::bump), and every Inc also fetch&adds
/// one shared digest word. Read is either a single digest FAA(0) — the
/// verified design, what a strongly linearizable op count costs: one shared
/// RMW per op — or, with `scan_read`, the one-pass sum over the lane cells,
/// which is how metrics_snapshot() computes ops_total. The scan read is
/// pinned REFUTED: a reader that has scanned cell 0 as empty cannot commit its
/// return value at any own step, because whether a completed Inc counts
/// depends on cells it will only read in the future, so no prefix-closed
/// linearization exists. The native layer pays for no digest word, so
/// ops_total is a diagnostic (exact at quiescence) that nothing branches on.
class SimTelemetryCounter : public core::ConcurrentObject {
 public:
  SimTelemetryCounter(sim::World& world, std::string name, int lanes,
                      bool scan_read = false);

  void inc(sim::Ctx& ctx);      ///< lane-cell register write, then digest FAA
  int64_t read(sim::Ctx& ctx);  ///< digest FAA(0), or one-pass lane-cell sum

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int lanes_;
  bool scan_read_;
  sim::Handle<prim::RegArray> cells_;     ///< per-lane counts, single writer
  sim::Handle<prim::FetchAddInt> digest_; ///< the shared FAA digest word
};

/// Sim twin of the write journal behind C2Session::snapshot()
/// (runtime/keyed_version_digest.h): keyed writes land on their per-shard
/// paper construction FIRST and then append one immutable entry to a
/// ticket-indexed journal — the tail fetch&add IS the write's linearization
/// point on the snapshot facet. Snap reads the tail once (FAA(0) — its own
/// fixed step) and deterministically replays entries below that ticket into
/// per-shard accumulators, polling a not-yet-deposited entry exactly like the
/// native replayer (entry CONTENT is fixed at ticket time, so the replay is a
/// pure function of the tail read). Xfer appends ONE entry moving value
/// between two shard balances — which is why every snapshot conserves the
/// transferred sum: no cut can separate the debit from the credit.
///
/// With `naive_loop` Snap instead does the obvious thing — one pass of direct
/// per-shard reads — and the checker REFUTES it (not even linearizable: a
/// write landing between two of the loop's reads tears the vector). That
/// pinned refutation is the reason C2Session::snapshot replays a journal
/// instead of looping over keyed reads (tests/snapshot_sim_test.cpp).
///
/// All ops are recorded on ONE facet (`name`), checkable against
/// verify::KeyedSnapshotSpec. Args use the spec's packed-int encoding;
/// "ReadShard"(s) exposes the direct shard-counter read for the cross-facet
/// order pins (shard first, journal last — same contract as the digests).
class SimKeyedSnapshot : public core::ConcurrentObject {
 public:
  SimKeyedSnapshot(sim::World& world, std::string name, int n, int shards,
                   bool naive_loop = false);

  void inc(sim::Ctx& ctx, int s);                      ///< shard ctr, then journal
  void write_max(sim::Ctx& ctx, int s, int64_t v);     ///< shard reg, then journal
  void transfer(sim::Ctx& ctx, int from, int to, int64_t d);  ///< journal only
  std::vector<int64_t> snap(sim::Ctx& ctx);  ///< tail FAA(0) + replay (or loop)
  int64_t read_shard(sim::Ctx& ctx, int s);  ///< direct shard counter read

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  /// One tail fetch&add (the append's linearization point) + the entry write.
  void journal_append(sim::Ctx& ctx, int kind, int a, int b, int64_t v);

  std::string name_;
  int shards_;
  bool naive_loop_;
  std::vector<std::unique_ptr<core::AtomicReadableTasArray>> ts_;
  std::vector<std::unique_ptr<core::FetchIncrement>> ctrs_;
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;
  sim::Handle<prim::FetchAddInt> tail_;   ///< journal tickets; FAA(0) = snapshot
  sim::Handle<prim::RegArray> entries_;   ///< ticket-indexed write-once entries
};

/// Sim twin of svc::LaneRegistry (see header comment above). Methods record
/// themselves as high-level ops, SimKeyedStore-style: spawn fibers that call
/// acquire/release directly.
class SimLaneRegistry {
 public:
  static constexpr int64_t kNone = -1;

  SimLaneRegistry(sim::World& world, std::string name, int max_lanes);

  /// Recorded as "Acquire" -> lane | -1 on object `name`.
  int64_t acquire(sim::Ctx& ctx);
  /// Recorded as "Release"(lane) -> () on object `name`.
  void release(sim::Ctx& ctx, int64_t lane);

  std::string object_name() const { return name_; }
  int max_lanes() const { return max_lanes_; }

 private:
  std::string name_;
  /// The set's Max. Thm 10 takes any strongly linearizable readable
  /// fetch&increment; a fetch&add word is one, at one step per op — the step
  /// count of the native set's Max (rt::NativeFetchIncrement works from its
  /// certified frontier, one probe once current), where the Thm 9 scan over
  /// a pre-filled set would pay a step per lane on every read.
  class FaaMax : public core::FaiIface {
   public:
    FaaMax(sim::World& world, const std::string& name)
        : word_(world.add<prim::FetchAddInt>(name)) {}
    int64_t fetch_and_increment(sim::Ctx& ctx) override {
      return ctx.world->get(word_).fetch_add(ctx, 1);
    }
    int64_t read(sim::Ctx& ctx) override { return ctx.world->get(word_).read(ctx); }

   private:
    sim::Handle<prim::FetchAddInt> word_;
  };

  int max_lanes_;
  std::unique_ptr<FaaMax> free_max_;
  std::unique_ptr<core::SLSet> free_;  ///< Thm 10 set of lanes not held
};

/// Sim twin of rt::HandoffQueue (see header comment above). Records "Enq"
/// (waiter registration, arg = waiter id > 0) and "Deq" (handoff) on one
/// queue facet object, checkable against verify::QueueSpec: FIFO in ticket
/// order, both linearization points fixed own-step fetch&adds. With
/// `scan_delivery` the handoff instead sweeps announced cells Herlihy–Wing
/// style — the pinned-refuted publication-order variant.
class SimHandoffQueue : public core::ConcurrentObject {
 public:
  SimHandoffQueue(sim::World& world, std::string name, bool scan_delivery = false);

  /// Recorded as "Enq"(wid) -> "OK"; linearizes at the Tail fetch&add.
  Val enq(sim::Ctx& ctx, int64_t wid);
  /// Recorded as "Deq" -> wid | "EMPTY"; linearizes at the Head fetch&add
  /// (ticket-order commitment) — or, in the scan_delivery variant, wherever
  /// the future lets it (which is exactly what the checker refutes).
  Val hand(sim::Ctx& ctx);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  bool scan_delivery_;
  sim::Handle<prim::FetchAddInt> tail_;   ///< waiter tickets (enqueue FAAs)
  sim::Handle<prim::FetchAddInt> head_;   ///< handoff tickets (commitment FAAs)
  sim::Handle<prim::SwapRegArray> cells_; ///< single-use rendezvous slots
};

/// Sim twin of rt::SegmentedArray<NativeReadableTAS> (see header comment).
/// Methods record themselves as high-level ops on PER-INDEX facet objects
/// (`cell_object(idx)`), so the checker can certify each cell as a readable
/// test&set via verify::TasSpec — strong linearizability is local, so
/// per-facet verdicts on the shared tree certify the whole array.
class SimSegmentedTasArray {
 public:
  SimSegmentedTasArray(sim::World& world, std::string name,
                       bool publish_before_init = false);

  /// Recorded as "TAS" -> 0|1 on `cell_object(idx)`.
  int64_t test_and_set(sim::Ctx& ctx, size_t idx);
  /// Recorded as "Read" -> 0|1 on `cell_object(idx)`. Never allocates: an
  /// unpublished segment reads as 0 at the spine-read step, mirroring the
  /// native peek() path.
  int64_t read(sim::Ctx& ctx, size_t idx);

  std::string cell_object(size_t idx) const;

  static int segment_of(size_t idx);
  static size_t segment_start(int s);
  static size_t segment_size(int s);

 private:
  void ensure_segment(sim::Ctx& ctx, int s);
  int64_t cell_value(const Val& raw) const;

  std::string name_;
  bool publish_before_init_;
  sim::Handle<prim::TasArray> claims_;     ///< per-segment one-shot claim
  sim::Handle<prim::RegArray> spine_;      ///< per-segment published flag
  /// Cell states: ⊥ = uninitialised memory (garbage), 0 = initialised unset,
  /// 1 = set. SwapRegArray so test&set is one swap step, like the native
  /// exchange.
  sim::Handle<prim::SwapRegArray> cells_;
};

/// Sim twin of the PR 9 routing-epoch hand-off (runtime/routing_epoch.h +
/// the epoch-stamped refs in service/c2store.h), at base-object step
/// granularity. One stamp register drives the whole protocol, exactly like
/// the native spine (2e = epoch e published, 2e+1 = epoch e+1 installing);
/// claims are per-epoch one-shot test&sets, counts live in a register spine,
/// and per-slot state is a Thm 1 max register per slot. Routing is the
/// identity mask (slot = key & (count-1)), which preserves the nesting
/// property the migration relies on while keeping the trees small.
///
///   * WriteMax(key, v): route under the PUBLISHED epoch of one stamp read,
///     slot write_max, then the writer-side Dekker settle loop — re-read the
///     stamp and re-apply under any newer mask until it is stable (the native
///     detail::ShardRef::settle verbatim).
///   * ReadMax(key): route under the published epoch of one stamp read, read
///     the slot register. (Reads never settle — the linearize-early argument
///     in the c2store.h header.)
///   * Resize(new): claim test&set -> count install -> stamp 2e+1 -> replay
///     parent slots into new slots by write_max -> stamp 2e+2.
///
/// Ops record on PER-KEY facet objects (`key_object`), so the checker
/// verifies each key's max-register facet strongly linearizable ACROSS the
/// migration cut — the epoch hand-off theorem, mechanised. The
/// `publish_before_replay` variant publishes the new epoch before replaying
/// (the serve-before-replay bug): a freshly-bound reader routes to the new
/// slot and reads 0 after a completed write — not even linearizable; the
/// checker REFUTES it (tests/service_sim_test.cpp pins both verdicts).
/// Resize itself records on a separate admin facet no spec checks.
class SimRoutingEpoch {
 public:
  SimRoutingEpoch(sim::World& world, std::string name, int n,
                  int initial_shards, int max_shards,
                  bool publish_before_replay = false);

  /// Recorded as "WriteMax"(v) on key_object(key).
  void write_max(sim::Ctx& ctx, uint64_t key, int64_t v);
  /// Recorded as "ReadMax" on key_object(key).
  int64_t read_max(sim::Ctx& ctx, uint64_t key);
  /// Recorded as "Resize"(new_shards) -> OK|NOOP|LOST|INFLIGHT on the admin
  /// facet (`name`.resize); the replay steps are the caller's own base steps.
  void resize(sim::Ctx& ctx, int new_shards);

  std::string key_object(uint64_t key) const;

 private:
  int64_t stamp_read(sim::Ctx& ctx);
  /// Identity-mask routing (slot = key & (count-1)) preserves the nesting
  /// property — a key either keeps its slot or moves to an index >= the old
  /// count — with no hashing noise in the trees.
  int shards_of(sim::Ctx& ctx, int64_t epoch);

  std::string name_;
  int initial_shards_;
  int max_shards_;
  bool publish_before_replay_;
  sim::Handle<prim::TasArray> claims_;  ///< per-epoch one-shot resize claim
  sim::Handle<prim::RegArray> counts_;  ///< epoch -> shard count (install)
  sim::Handle<prim::RegArray> stamp_;   ///< cell 0: the stamp word (⊥ = 0)
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;  ///< per-slot Thm 1
};

class SimShardedMaxRegister : public core::ConcurrentObject {
 public:
  SimShardedMaxRegister(sim::World& world, std::string name, int n, int shards,
                        bool double_collect = true);

  void write_max(sim::Ctx& ctx, int64_t v);  ///< routes by v & (shards-1)
  int64_t read_max(sim::Ctx& ctx);           ///< aggregate scan

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::vector<int64_t> collect(sim::Ctx& ctx);

  std::string name_;
  int shards_;
  bool double_collect_;
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;
};

class SimShardedCounter : public core::ConcurrentObject {
 public:
  SimShardedCounter(sim::World& world, std::string name, int shards,
                    bool double_collect = true);

  void inc(sim::Ctx& ctx);    ///< routes by calling process id
  int64_t read(sim::Ctx& ctx);  ///< aggregate scan (sum)

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::vector<int64_t> collect(sim::Ctx& ctx);

  std::string name_;
  int shards_;
  bool double_collect_;
  std::vector<std::unique_ptr<core::AtomicReadableTasArray>> ts_;
  std::vector<std::unique_ptr<core::FetchIncrement>> ctrs_;
};

}  // namespace c2sl::svc
