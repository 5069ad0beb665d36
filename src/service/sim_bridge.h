// Sim-mode C2Store bridge: small configurations of the service layer, so the
// bounded model checkers (verify/lin_checker, verify/strong_lin) can exercise
// the service's routing, aggregate, journal and hand-off algorithms on every
// execution. The twins run the store's own code: the routing functions
// (shard_router.h), the max register, the shard counter, the journal, the
// sum digest and the routing-epoch spine themselves (rt::BasicMaxRegister64,
// rt::BasicFetchIncrement, rt::BasicKeyedVersionDigest,
// rt::BasicCounterSumDigest and rt::BasicRoutingEpoch instantiated over
// sim::SimMem, whose every word access is one checker step), the replay fold
// (detail::SnapReplay) and the writers' settle loop (rt::EpochCodec::settle).
// Strong linearizability is local, so certifying each facet on a shared
// graph certifies the configuration. The twins:
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
//   * SimRoutingEpoch — the online-resize hand-off, or the refuted
//     serve-before-replay order and writer without settle.
//
// Lazy publication, the lane set and the handoff queue need no twin: their
// tests run rt::BasicPublishOnce, rt::BasicSet and rt::BasicHandoffQueue over
// sim::SimMem directly (tests/service_sim_test.cpp, lane_registry_test.cpp,
// handoff_queue_test.cpp).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "core/object_api.h"
#include "runtime/counter_sum_digest.h"
#include "runtime/keyed_version_digest.h"
#include "runtime/native_max_register.h"
#include "runtime/native_tas_family.h"
#include "runtime/routing_epoch.h"
#include "service/shard_router.h"
#include "sim/sim_mem.h"

namespace c2sl::svc {

/// The store's max register (ShardObjects::max, C2Store's max digest) over
/// SimMem, each op one shared step, at the widest lane n processes allow.
struct SimMaxRegister : rt::BasicMaxRegister64<sim::SimMem> {
  explicit SimMaxRegister(int n) : BasicMaxRegister64(n, rt::lane_max(n)) {}
};

/// The store's shard counter (ShardObjects::counter) over SimMem.
using SimFetchIncrement = rt::BasicFetchIncrement<sim::SimMem>;

/// The per-key service path: each op routes by the store's hash_key +
/// slot_of and records on its shard's facet ("<name>.s<k>.max" /
/// "<name>.s<k>.ctr"), the configuration the checker PASSES.
class SimKeyedStore {
 public:
  SimKeyedStore(std::string name, int n, int shards);

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
  std::deque<SimMaxRegister> regs_;
  std::deque<SimFetchIncrement> ctrs_;
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

/// Aggregate twin over per-shard Thm 1 max registers, plus the digest
/// register that only kDigest writes and reads (all SimMaxRegister).
/// WriteMax routes by v & (shards-1). ReadMax reads as `read` says.
/// "ReadShard"(s) reads one shard register in every mode, so tests can pin
/// the cross-facet write order (shard first, digest second: the digest may
/// lag a shard register but never leads them all).
class SimShardedMaxRegister : public core::ConcurrentObject {
 public:
  SimShardedMaxRegister(std::string name, int n, int shards, AggRead read);

  void write_max(sim::Ctx& ctx, int64_t v);
  int64_t read_max();
  int64_t read_shard(int s);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  AggRead read_;
  std::deque<SimMaxRegister> regs_;
  SimMaxRegister digest_;
};

/// Aggregate twin over per-shard counters (SimFetchIncrement), plus the
/// store's own sum digest (rt::CounterSumDigest's code over SimMem) that only
/// kDigest writes and reads. Inc routes by
/// calling process id; Read reads as `read` says (the scans sum a collect);
/// "ReadShard"(s) reads one shard counter in every mode. With one shard per
/// incrementing process, kOnePass is the lane-cell ops_total read of
/// telemetry/telemetry.h, which the checker refutes.
class SimShardedCounter : public core::ConcurrentObject {
 public:
  SimShardedCounter(std::string name, int shards, AggRead read);

  void inc(sim::Ctx& ctx);
  int64_t read();
  int64_t read_shard(int s);

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  AggRead read_;
  std::deque<SimFetchIncrement> ctrs_;
  rt::BasicCounterSumDigest<sim::SimMem> digest_;
};

/// Sim twin of the write journal behind C2Session::snapshot()
/// (runtime/keyed_version_digest.h): keyed writes land on their per-shard
/// object FIRST and then append one immutable entry to the
/// store's own journal, instantiated over SimMem — the tail fetch&add IS the
/// write's linearization point on the snapshot facet, and the cells hold the
/// native packed words. Snap reads the tail once (version(): one seq_cst
/// load, its own fixed step) and replays the entries below it with the
/// store's own detail::SnapReplay::fold over entry(), whose acquire-spin on a
/// not-yet-deposited cell is one checker step per poll (entry CONTENT is
/// fixed at ticket time, so the replay is a pure function of the tail read).
/// Xfer appends ONE entry moving value between two shard balances — which
/// is why every snapshot conserves the transferred sum: no cut can separate
/// the debit from the credit. An amount outside [kInlineMin, kInlineMax]
/// takes the native wide path: two tickets from one fetch&add, amount cell
/// before header.
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
  SimKeyedSnapshot(std::string name, int n, int shards, bool naive_loop = false);

  void inc(int s);                             ///< shard ctr, then journal
  void write_max(sim::Ctx& ctx, int s, int64_t v);  ///< shard reg, then journal
  void transfer(int from, int to, int64_t d);  ///< journal only
  std::vector<int64_t> snap();                 ///< tail load + replay (or loop)
  int64_t read_shard(int s);                   ///< direct shard counter read

  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx& ctx, const verify::Invocation& inv) override;

 private:
  std::string name_;
  int shards_;
  bool naive_loop_;
  std::deque<SimFetchIncrement> ctrs_;
  std::deque<SimMaxRegister> regs_;
  rt::BasicKeyedVersionDigest<sim::SimMem> journal_;
};

/// Sim twin of the routing-epoch hand-off (runtime/routing_epoch.h + the
/// epoch-stamped refs in service/c2store.h). The spine is the store's own
/// rt::BasicRoutingEpoch over SimMem — its stamp word, claim cells and count
/// cells, each access one checker step — and per-slot state is the store's
/// max register (SimMaxRegister) per slot. Routing is the identity mask
/// (slot = key & (count-1)), which preserves the nesting property the
/// migration relies on while keeping the trees small.
///
///   * WriteMax(key, v): route under the PUBLISHED epoch of one stamp() read,
///     slot write_max, then rt::EpochCodec::settle — the loop
///     detail::ShardRef::settle runs.
///   * ReadMax(key): route under the published epoch of one stamp() read,
///     read the slot register. (Reads never settle — the linearize-early
///     argument in the c2store.h header.)
///   * Resize(new): try_begin (claim, count install, stamp 2e+1), replay
///     parent slots into new slots by write_max, publish (stamp 2e+2) — the
///     sequence C2Store::resize_with_lane runs.
///
/// Ops record on PER-KEY facet objects (`key_object`), so the checker
/// verifies each key's max-register facet strongly linearizable ACROSS the
/// migration cut — the epoch hand-off theorem, mechanised. The two broken
/// variants are each REFUTED (tests/service_sim_test.cpp pins every verdict).
/// Resize itself records on a separate admin facet no spec checks.
class SimRoutingEpoch {
 public:
  enum class Variant {
    kServing,  ///< the store's order
    /// Publishes the new epoch before replaying (serve-before-replay): a
    /// freshly-bound reader routes to the new slot and reads 0 after a
    /// completed write — not even linearizable.
    kPublishBeforeReplay,
    /// Writers skip the settle loop (the Dekker recheck): a write that lands
    /// in the old slot after the replay read it is lost to the new slot.
    kWriterSkipsSettle,
  };

  SimRoutingEpoch(std::string name, int n, int initial_shards, int max_shards,
                  Variant variant = Variant::kServing);

  /// Recorded as "WriteMax"(v) on key_object(key).
  void write_max(sim::Ctx& ctx, uint64_t key, int64_t v);
  /// Recorded as "ReadMax" on key_object(key).
  int64_t read_max(sim::Ctx& ctx, uint64_t key);
  /// Recorded as "Resize"(new_shards) -> OK|NOOP|INFLIGHT|POISONED on the
  /// admin facet (`name`.resize); the replay steps are the caller's own.
  void resize(sim::Ctx& ctx, int new_shards);

  std::string key_object(uint64_t key) const;

 private:
  /// Identity-mask routing (slot = key & (count-1)) preserves the nesting
  /// property — a key either keeps its slot or moves to an index >= the old
  /// count — with no hashing noise in the trees.
  int slot_of(uint64_t key, int64_t epoch) const;

  std::string name_;
  int max_shards_;
  Variant variant_;
  rt::BasicRoutingEpoch<sim::SimMem> epochs_;
  std::deque<SimMaxRegister> regs_;  ///< per-slot Thm 1
};

}  // namespace c2sl::svc
