// Sim-mode C2Store bridge: small configurations of the service layer rebuilt
// over the *simulated* paper constructions, so the bounded model checkers
// (verify/lin_checker, verify/strong_lin) can exercise the service's routing,
// aggregate, journal and hand-off algorithms on full execution trees. Where a
// protocol step is not a paper construction, a twin runs the store's own
// code: the routing functions (shard_router.h), the journal and the sum
// digest themselves (rt::BasicKeyedVersionDigest and rt::BasicCounterSumDigest
// instantiated over sim::SimMem, whose every word access is one checker step),
// the replay fold (detail::SnapReplay), and the epoch stamp codec and settle
// loop (rt::RoutingEpoch). Strong linearizability is local, so certifying each
// facet on a shared tree certifies the configuration. The twins:
//
//   * SimKeyedStore — keyed max-register and counter ops routed by hash_key +
//     slot_of onto per-shard constructions (tests/service_sim_test.cpp).
//   * SimShardedMaxRegister / SimShardedCounter — one aggregate twin per
//     value type, read as AggRead says: the digest behind C2Store::
//     global_max() / counter_sum() (verified), or the double-collect and
//     one-pass scans the checker refutes (the one-pass counter scan is also
//     the lane-cell ops_total read: tests/service_sim_test.cpp).
//   * SimKeyedSnapshot — the write journal behind C2Session::snapshot() and
//     transfer(), or the refuted per-key loop (tests/snapshot_sim_test.cpp).
//   * SimLaneRegistry — the Thm 10 lane set behind open_session()
//     (tests/lane_registry_test.cpp).
//   * SimHandoffQueue — the FIFO hand-off behind blocking open_session(), or
//     the refuted publication-order scan (tests/handoff_queue_test.cpp).
//   * SimSegmentedTasArray — the publish-once protocol (rt::PublishOnce::get)
//     at step granularity, or the refuted publish-before-init order.
//   * SimRoutingEpoch — the online-resize hand-off, or the refuted
//     serve-before-replay order.
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
#include "runtime/counter_sum_digest.h"
#include "runtime/keyed_version_digest.h"
#include "service/shard_router.h"
#include "sim/sim_mem.h"

namespace c2sl::svc {

/// The per-key service path: each op routes by the store's hash_key +
/// slot_of and records on its shard's facet ("<name>.s<k>.max" /
/// "<name>.s<k>.ctr"), the configuration the checker PASSES.
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

/// How an aggregate twin serves its global read.
enum class AggRead {
  /// Every write also lands on one digest word, AFTER its shard object; the
  /// read is one digest read. Strongly linearizable: each write linearizes at
  /// its own digest step, each read at its read — the design behind
  /// C2Store::global_max() and counter_sum(), the paper's §3.2 pack-into-one-
  /// FAA-word move.
  kDigest,
  /// Collect every shard until two consecutive collects coincide.
  /// Linearizable, but NOT strongly linearizable: the stable pair is decided
  /// by future steps, so no prefix-closed linearization exists (pinned
  /// refutation).
  kDoubleCollect,
  /// One collect. Not even linearizable (pinned refutation).
  kOnePass,
};

/// Aggregate twin over per-shard Thm 1 max registers ("<name>.shard<s>"),
/// plus the digest register ("<name>.digest") that only kDigest writes and
/// reads. WriteMax routes by v & (shards-1); ReadMax reads as `read` says;
/// "ReadShard"(s) reads one shard register in every mode, so tests can pin
/// the cross-facet write order (shard first, digest second: the digest may
/// lag a shard register but never leads them all).
class SimShardedMaxRegister : public core::ConcurrentObject {
 public:
  SimShardedMaxRegister(sim::World& world, std::string name, int n, int shards,
                        AggRead read);

  void write_max(sim::Ctx& ctx, int64_t v);
  int64_t read_max(sim::Ctx& ctx);
  int64_t read_shard(sim::Ctx& ctx, int s);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  AggRead read_;
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;
  std::unique_ptr<core::MaxRegisterFAA> digest_;
};

/// Aggregate twin over per-shard Thm 9 counters ("<name>.M<s>" /
/// "<name>.ctr<s>"), plus the store's own sum digest (rt::CounterSumDigest's
/// code over SimMem) that only kDigest writes and reads. Inc routes by
/// calling process id; Read reads as `read` says (the scans sum a collect);
/// "ReadShard"(s) reads one shard counter in every mode. With one shard per
/// incrementing process, kOnePass is the lane-cell ops_total read of
/// telemetry/telemetry.h, which the checker refutes.
class SimShardedCounter : public core::ConcurrentObject {
 public:
  SimShardedCounter(sim::World& world, std::string name, int shards,
                    AggRead read);

  void inc(sim::Ctx& ctx);
  int64_t read(sim::Ctx& ctx);
  int64_t read_shard(sim::Ctx& ctx, int s);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  AggRead read_;
  std::vector<std::unique_ptr<core::AtomicReadableTasArray>> ts_;
  std::vector<std::unique_ptr<core::FetchIncrement>> ctrs_;
  rt::BasicCounterSumDigest<sim::SimMem> digest_;
};

/// Sim twin of the write journal behind C2Session::snapshot()
/// (runtime/keyed_version_digest.h): keyed writes land on their per-shard
/// paper construction FIRST and then append one immutable entry to the
/// store's own journal, instantiated over SimMem — the tail fetch&add IS the
/// write's linearization point on the snapshot facet, and the cells hold the
/// native packed words. Snap reads the tail once (version(): FAA(0), its own
/// fixed step) and replays the entries below it with the store's own
/// detail::SnapReplay::fold over entry(), whose acquire-spin on a
/// not-yet-deposited cell is one checker step per poll (entry CONTENT is
/// fixed at ticket time, so the replay is a pure function of the tail read). Xfer appends ONE entry
/// moving value between two shard balances — which is why every snapshot
/// conserves the transferred sum: no cut can separate the debit from the
/// credit. An amount outside [kInlineMin, kInlineMax] takes the native wide
/// path: two tickets from one fetch&add, amount cell before header.
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
  std::string name_;
  int shards_;
  bool naive_loop_;
  std::vector<std::unique_ptr<core::AtomicReadableTasArray>> ts_;
  std::vector<std::unique_ptr<core::FetchIncrement>> ctrs_;
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;
  rt::BasicKeyedVersionDigest<sim::SimMem> journal_;
};

/// Sim twin of svc::LaneRegistry: the constructor fills an SLSet with every
/// lane through a solo context; Acquire is one SLSet::Take, reporting -1 when
/// the set stabilises empty; Release is SLSet::Put. The checker verifies both
/// strongly linearizable against verify::LaneRegistrySpec. Methods record
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

/// Sim twin of rt::HandoffQueue. Records "Enq" (waiter registration, arg =
/// waiter id > 0: one Tail fetch&add, then the id announced on its ticket's
/// swap cell) and "Deq" (handoff: one Head fetch&add commits to the oldest
/// ticket, then collects the id) on one queue facet object, checkable
/// against verify::QueueSpec: FIFO in ticket order, both linearization
/// points fixed own-step fetch&adds. The data direction is inverted relative
/// to the native queue (there the DELIVERER deposits a lane; here the WAITER
/// deposits its id) because the checkable response is "which waiter got
/// served" — the commitment structure is identical. With `scan_delivery`
/// the handoff instead sweeps announced cells Herlihy–Wing style: its target
/// is decided by future cell writes, and the checker REFUTES it.
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

/// Sim twin of rt::SegmentedArray<NativeReadableTAS> and the publish-once
/// protocol behind it (rt::PublishOnce::get, which publishes segments and
/// shard slots alike): doubling segments (base 1 here, so segment s covers
/// [2^s − 1, 2^(s+1) − 1)), each published by the winner of a per-segment
/// claim test&set through a register write, with cells INITIALISED BEFORE
/// the publish. Uninitialised cells read as garbage (an adversarial 1). The
/// `publish_before_init` variant swaps the two phases: a reader that passes
/// the gate early observes garbage, and the checker REFUTES it. Methods
/// record on PER-INDEX facet objects (`cell_object(idx)`), so the checker
/// certifies each cell as a readable test&set via verify::TasSpec.
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

/// Sim twin of the routing-epoch hand-off (runtime/routing_epoch.h + the
/// epoch-stamped refs in service/c2store.h), at base-object step
/// granularity. One stamp register drives the whole protocol, read and
/// written through rt::RoutingEpoch's stamp codec; claims are per-epoch
/// one-shot test&sets, counts live in a register spine, and per-slot state is
/// a Thm 1 max register per slot. Routing is the identity mask (slot = key &
/// (count-1)), which preserves the nesting property the migration relies on
/// while keeping the trees small.
///
///   * WriteMax(key, v): route under the PUBLISHED epoch of one stamp read,
///     slot write_max, then rt::RoutingEpoch::settle — the loop
///     detail::ShardRef::settle runs.
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
  int shards_of(sim::Ctx& ctx, int64_t epoch);
  /// Identity-mask routing (slot = key & (count-1)) preserves the nesting
  /// property — a key either keeps its slot or moves to an index >= the old
  /// count — with no hashing noise in the trees.
  int slot_of(sim::Ctx& ctx, uint64_t key, int64_t epoch);

  std::string name_;
  int initial_shards_;
  int max_shards_;
  bool publish_before_replay_;
  sim::Handle<prim::TasArray> claims_;  ///< per-epoch one-shot resize claim
  sim::Handle<prim::RegArray> counts_;  ///< epoch -> shard count (install)
  sim::Handle<prim::RegArray> stamp_;   ///< cell 0: the stamp word (⊥ = 0)
  std::vector<std::unique_ptr<core::MaxRegisterFAA>> regs_;  ///< per-slot Thm 1
};

}  // namespace c2sl::svc
