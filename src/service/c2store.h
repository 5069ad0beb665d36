// C2Store — a sharded, strongly-linearizable object service over the native
// (std::atomic) constructions of the paper, using NO primitive stronger than
// consensus number 2: exchange (test&set / swap) and fetch&add only; there is
// no compare&swap anywhere in the service plumbing either (grep-enforced by
// tests/c2store_test.cpp and machine-checked by tools/atomics_audit.py).
//
// Public surface (the session redesign):
//
//   C2Store store(cfg);
//   C2Session s = store.open_session();      // RAII lane acquisition
//   MaxRef score = s.max("user:1042/score"); // hash ONCE, route per epoch
//   score.write(5);                          // cached-pointer op from here on
//   s.counter("hits").inc();
//   s.resize(64);                            // grow the store, live (PR 9)
//
// All lane-indexed constructions (max-register unary lanes, TAS reset
// writers) need a caller lane below cfg.max_threads. That lane is no longer a
// raw `int tid` parameter on every call — a C2Session acquires one from the
// LaneRegistry (F&I ticket for first-acquire, NativeSet put/take to recycle
// freed lanes; see service/lane_registry.h) and releases it on destruction,
// so dynamically joining and leaving threads share a bounded lane space
// without any call-site bookkeeping. Recycling is unbounded (the registry's
// free set rides on the segmented arrays), so a store supports arbitrarily
// many session opens/closes over its lifetime. Under full-lane contention,
// open_session() BLOCKS on the registry's consensus-2 handoff queue
// (runtime/handoff_queue.h): a closing session hands its lane directly to the
// oldest waiter, FIFO-fair, instead of racing opportunistic reopeners.
//
// ROUTING EPOCHS (PR 9). The shard count is a starting hint, not a capacity
// commitment: C2Session::resize(new_shards) grows the store under live
// traffic. Routing state lives on a RoutingEpoch spine
// (runtime/routing_epoch.h): each epoch is a wider power-of-two table, a
// resize claims the next epoch cell with a one-shot exchange, migrates the
// per-shard state it moves by idempotent monotone replay (write_max / counter
// re-add / TAS set-ness merge), then register-publishes the epoch. Because
// masks nest (a key either keeps its slot or moves to a fresh one >= the old
// count), old slots remain valid lower bounds and the replay needs no
// "remove" — the per-key objects are monotone, which is the whole trick.
//
// Typed key-bound refs — MaxRef / CounterRef / TasRef / SetRef — are the
// per-key surface. Binding hashes the key ONCE and caches the routed slot
// pointer, stamped with the routing epoch it routed under. The hot path
// revalidates with one RELAXED stamp load (advisory: a stale read only delays
// a rebind, never breaks correctness — see the Dekker note below) and rebinds
// only on an actual epoch publish, so the steady-state cost stays the PR 2
// cached-pointer path: no re-hash, no re-route. Mutating ops additionally
// end with one seq_cst stamp recheck — the writer half of a Dekker handshake
// with the resizer's install store: if a migration raced the op, the op
// re-applies itself under the newest mask (idempotent for the same monotone
// reason the migration replay is), so a write can never fall between the
// migration's replay and the new epoch's publish. SetRef does NOT follow
// epochs: take() is not monotone, so set routing is pinned to the INITIAL
// mask forever (documented below).
//
// What survives a resize, exactly: the monotone VALUE facets — max reads,
// counter counts (lower bounds; a sum over slots over-approximates after a
// resize because replay duplicates in-window increments, while counter_sum()
// stays exact), TAS set-ness — never regress across the cut, and the
// epoch hand-off on the value facets is checker-verified strongly
// linearizable (SimRoutingEpoch; the serve-before-replay variant is pinned
// refuted). DECISION outputs — TAS winner identity, fetch&increment tickets —
// are per-epoch, exactly like the documented key-collision semantics: a
// resize changes which slot a key NAMES, so uniqueness tokens from different
// epochs of a key are tokens of different slot objects. Callers needing a
// cross-resize unique decision should serialise resizes with those decisions
// (the same advisory contract as TAS resets).
//
// Shape: cache-line-padded slots on a lazily-grown SegmentedArray spine; a
// key (int or string) is hashed onto a slot (lock-striping style — keys that
// collide share the slot's objects, which is the documented semantics: the
// store serves `shards` independent instances of each object type and keys
// *name* them through hashing). Each slot lazily materialises one instance of
// each shardable object type on first touch:
//   * NativeMaxRegister64  (Thm 1)  — MaxRef
//   * NativeFetchIncrement (Thm 9)  — CounterRef
//   * NativeMultishotTAS   (Thm 6)  — TasRef
//   * NativeSet            (Thm 10) — SetRef
//
// Lazy initialisation is guarded by the paper's own readable test&set (Thm 5):
// the winner of the slot's test&set constructs the objects and publishes them
// through an atomic pointer store (a plain register write — consensus number
// 1); losers spin on the publication. No CAS, no mutex. Binding a ref does
// NOT materialise the shard — reads through an unmaterialised ref return the
// initial values; the first mutating op claims the slot.
//
// Per-key operations are strongly linearizable by locality: each key's ops run
// on one strongly-linearizable shard instance, and strong linearizability
// composes (tests/service_sim_test.cpp checks per-shard facets through the
// real routing layer on full execution trees). Lane acquire/release is itself
// strongly linearizable (tests/lane_registry_test.cpp, checker-verified).
//
// Aggregates: global_max() and counter_sum() read store-level DIGESTS that
// every write also updates — global_max an extra NativeMaxRegister64 (every
// MaxRef::write lands there too), counter_sum a CounterSumDigest (every
// CounterRef::inc also fetch_adds the digest word) — so each global read is a
// single fetch&add(0): wait-free and strongly linearizable, exactly the
// paper's "pack it into one FAA word" move (§3.1/§3.2). The digests are keyed
// by LANE, not by slot, so they are EPOCH-INDEPENDENT: a resize cannot tear
// them, and they stay exact across any number of migrations (the in-window
// slot duplication never reaches them). A scan over the per-shard read paths
// cannot replace them: even the double-collect scan is only linearizable, not
// strongly linearizable — its sim twin's refutation is pinned in
// tests/service_sim_test.cpp (docs/PROOFS.md works the argument).
//
// Between the per-key ops and the whole-store aggregates sits the MULTI-KEY
// surface: session.snapshot(keys) returns a consistent vector over chosen
// counter/max keys, strongly linearizable as ONE operation, and
// session.transfer(a, b, d) atomically moves d between two counter keys'
// ledger balances. Both ride the store's write journal
// (runtime/keyed_version_digest.h): every keyed write appends one entry whose
// tail fetch&add is its linearization point, and a snapshot linearizes at a
// single tail FAA(0), then deterministically replays the journal prefix into
// session-local per-shard accumulators. The journal facet is EPOCH-
// INDEPENDENT BY CONSTRUCTION: entries and snapshot components are bucketed
// under the INITIAL mask forever, so the snapshot/transfer story never reads
// routing state at all — resizes appear in the journal only as informational
// kResize markers. (Consequence: snapshot key-collision classes are fixed at
// cfg.initial_shards; two keys that a resize separates on the slot facet keep
// sharing a snapshot bucket.) Counter keys snapshot to their LEDGER balance
// (#incs + net transfers — transfers exist only on this facet, since the
// Thm 9 counter is inc-only); max keys snapshot to the running max of
// journaled writes. At quiescence with no resizes: snapshot(counter k) ==
// counter_read(k) + net transfers into k's bucket, and snapshot(max k) ==
// max_read(k) (tests/snapshot_service_test.cpp pins both identities).
// Snapshots never materialise shards — an untouched key reads as 0.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/counter_sum_digest.h"
#include "runtime/keyed_version_digest.h"
#include "runtime/native_tas_family.h"
#include "runtime/routing_epoch.h"
#include "runtime/segmented_array.h"
#include "service/lane_registry.h"
#include "service/shard_router.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace c2sl::svc {

/// No capacity knobs: counters, sets, lane recycling AND (since PR 9) the
/// shard table itself are backed by segmented, lazily-grown arrays
/// (runtime/segmented_array.h) and are unbounded — a store and its sessions
/// can run indefinitely, and resize() grows the shard count under live
/// traffic. The two remaining numeric bounds are 63-bit lane-PACKING limits
/// of the fetch&add max registers (§6 width discussion), not array
/// capacities.
struct C2StoreConfig {
  int initial_shards = 16;  ///< power of two; a starting hint — see resize()
  int max_threads = 8;      ///< maximum CONCURRENT sessions (lane owners)

  /// Per-shard max register bound; max_threads * max_value must fit in 63 bits.
  int64_t max_value = 7;
  /// Per-shard multi-shot TAS reset budget; max_threads * (tas_max_resets + 1)
  /// must fit in 63 bits.
  int64_t tas_max_resets = 6;
};

/// Typed outcome of TasRef::reset(). The budget gate is advisory under
/// concurrency: callers that might consume the LAST reset generation
/// concurrently must serialize resets externally.
enum class ResetResult {
  kOk,          ///< the TAS was recycled (a reset generation was consumed)
  kBudgetSpent  ///< the shard's reset budget is exhausted; nothing was done
};

/// Outcome of a resize (re-exported from the runtime spine): kInstalled means
/// THIS caller migrated and published the new epoch.
using ResizeStatus = rt::RoutingEpoch::ResizeStatus;

class C2Store;
class C2Session;

/// One shard slot's lazily-materialised objects. Internal layout — public at
/// namespace scope only so the typed refs can inline their cached-pointer hot
/// paths; never construct or hold one directly.
struct ShardObjects {
  rt::NativeMaxRegister64 max;
  rt::NativeFetchIncrement counter;
  rt::NativeMultishotTAS tas;
  rt::NativeSet set;

  explicit ShardObjects(const C2StoreConfig& c)
      : max(c.max_threads, c.max_value), tas(c.max_threads, c.tas_max_resets) {}
};

namespace detail {
/// Common state of the typed key-bound refs: the key is hashed ONCE at bind
/// time; the routed slot and its object pointer are cached, stamped with the
/// routing epoch they were computed under. Ops revalidate the stamp with one
/// relaxed load (rebind only on an epoch publish — re-route without
/// re-hashing), and mutating ops settle with a seq_cst stamp recheck (the
/// Dekker handshake with a concurrent resize; see settle()). A ref is a
/// borrowed view: it must not outlive its session (the lane it carries is
/// recycled when the session closes) or the store.
class ShardRef {
 public:
  int shard() const { return shard_; }

 protected:
  inline ShardRef(C2Store* store, int lane, uint64_t hash,
                  tel::LaneTelemetry* tel, tel::LaneTrace* trc);
  /// Tag ctor for refs whose routing NEVER follows epochs (SetRef: take() is
  /// not monotone, so set state cannot be migrated — pinned to the initial
  /// mask, documented in the header).
  struct PinInitialRouting {};
  inline ShardRef(C2Store* store, int lane, uint64_t hash,
                  tel::LaneTelemetry* tel, tel::LaneTrace* trc,
                  PinInitialRouting);

  /// Cached objects, or nullptr while the shard is unmaterialised.
  inline ShardObjects* resolved();
  /// Cached objects, materialising the shard (readable-TAS claim) on demand.
  inline ShardObjects& ensure();
  /// Epoch revalidation, the hot-path prefix of every epoch-following op: one
  /// RELAXED stamp load against the cached epoch; on mismatch, re-route from
  /// the cached hash under the current published mask (a seq_cst stamp read —
  /// cold, once per resize per ref). The relaxed load is advisory: if it is
  /// stale the op simply runs against the older slot and settle() repairs
  /// (writers) or the read linearizes before the publish (readers — any
  /// happens-before edge from a newer-epoch write forces a fresh stamp by
  /// coherence, so a genuinely-completed-before write is never missed).
  inline void revalidate();
  /// The writer-side Dekker recheck, run AFTER the primary slot application:
  /// one seq_cst stamp load; while it exposes an epoch newer than the last
  /// one applied under, re-apply the op (idempotent monotone merge) to the
  /// key's slot under the newest mask and re-load. In the seq_cst total
  /// order either the migration's replay read captured the primary write, or
  /// this recheck sees the install and re-applies — a write can never fall
  /// through a migration (docs/PROOFS.md works the two cases).
  template <typename Apply>
  inline void settle(const Apply& apply);

  C2Store* store_;
  /// The owning session's lane-local telemetry block (single-writer — the
  /// session's thread), cached at bind time like the shard slot. Null only in
  /// the C2SL_CAPTURE=0 flavour, where tel::OpScope ignores it.
  tel::LaneTelemetry* tel_;
  /// The owning session's lane-local trace log (single-writer, same
  /// discipline). Null only in the C2SL_CAPTURE=0 flavour, where
  /// tel::TraceScope ignores it.
  tel::LaneTrace* trc_;
  ShardObjects* objs_ = nullptr;
  uint64_t hash_;   ///< hashed once at bind; rebinds re-mask, never re-hash
  int64_t epoch_;   ///< routing epoch shard_ was computed under
  int lane_;
  int shard_;
};
}  // namespace detail

/// Key-bound max register (Thm 1 lanes under the hood).
class MaxRef : public detail::ShardRef {
 public:
  inline void write(int64_t v);
  inline int64_t read();

 private:
  friend class C2Session;
  using ShardRef::ShardRef;
};

/// Key-bound readable fetch&increment counter (Thm 9).
class CounterRef : public detail::ShardRef {
 public:
  inline int64_t inc();  ///< returns the pre-increment value
  inline int64_t read();

 private:
  friend class C2Session;
  using ShardRef::ShardRef;
};

/// Key-bound multi-shot readable test&set (Thm 6).
class TasRef : public detail::ShardRef {
 public:
  inline int64_t test_and_set();  ///< 0 to the generation's winner, else 1
  inline int64_t read();
  inline ResetResult reset();

 private:
  friend class C2Session;
  using ShardRef::ShardRef;
};

/// Key-bound unordered set (Thm 10, Algorithm 2). Routing is PINNED to the
/// initial mask: take() is not monotone, so set contents cannot be migrated
/// by idempotent replay — a resize never changes which slot a set key names.
class SetRef : public detail::ShardRef {
 public:
  inline void put(int64_t item);
  inline int64_t take();  ///< taken item or C2Store::kEmpty

 private:
  friend class C2Session;
  using ShardRef::ShardRef;
};

/// Key classes a snapshot component can observe. Counter keys report the
/// LEDGER balance (incs + net transfers); max keys report the running max of
/// journaled writes (== the shard max register at quiescence, absent resizes).
enum class SnapKind : int { kCounter = 0, kMax = 1 };

/// One snapshot component: a typed key. Build with SnapKey::counter /
/// SnapKey::max. Keys collapse to buckets under the INITIAL mask — the
/// snapshot facet is epoch-independent, so its collision classes never change
/// (keys that hash together under cfg.initial_shards share a component).
struct SnapKey {
  SnapKind kind;
  uint64_t key;
  static SnapKey counter(uint64_t k) { return {SnapKind::kCounter, k}; }
  static SnapKey max(uint64_t k) { return {SnapKind::kMax, k}; }
};

namespace detail {
/// Session-local journal replay state: the cursor (journal prefix already
/// folded in) and the per-bucket accumulators it folded into. O(buckets), not
/// O(journal): replay cost is paid once per journal entry per session, no
/// matter how many snapshots are taken. A fresh session starts at cursor 0
/// and replays the full journal on its first snapshot (the close/reopen
/// continuity test rides on exactly that). Bucket space is the INITIAL shard
/// count, fixed for the store's lifetime (the journal facet is
/// epoch-independent; kResize markers are informational).
struct SnapReplay {
  explicit SnapReplay(int buckets)
      : ctr_net(static_cast<size_t>(buckets), 0),
        max_seen(static_cast<size_t>(buckets), 0) {}
  int64_t cursor = 0;
  std::vector<int64_t> ctr_net;   ///< per-bucket ledger balance
  std::vector<int64_t> max_seen;  ///< per-bucket max of journaled writes
  /// Total journaled increments below cursor (transfers net zero, so this is
  /// also the sum of all ledger balances) — the snapshot's traced result.
  int64_t total_incs = 0;
};
}  // namespace detail

/// Bound multi-key snapshot over the write journal
/// (runtime/keyed_version_digest.h). Binding routes every key ONCE under the
/// initial mask (duplicates allowed, order preserved; the empty list is valid
/// and reads as the empty vector). read() is strongly linearizable as ONE
/// operation: it linearizes at its single tail FAA(0) and deterministically
/// replays the journal prefix below it — it never reads routing state, so it
/// is trivially resize-proof (no torn table reads are even expressible).
/// Reads never materialise shards — an untouched key reads as 0 and
/// initialized_shards() is unchanged. A borrowed view like the typed refs: it
/// must not outlive its session.
class SnapshotRef {
 public:
  /// One value per bound key, consistent as of a single linearization point.
  inline std::vector<int64_t> read();
  int size() const { return static_cast<int>(slots_.size()); }

 private:
  friend class C2Session;
  SnapshotRef(C2Store* store, detail::SnapReplay* replay,
              tel::LaneTelemetry* tel, tel::LaneTrace* trc,
              std::vector<std::pair<SnapKind, int>> slots)
      : store_(store),
        replay_(replay),
        tel_(tel),
        trc_(trc),
        slots_(std::move(slots)) {}

  C2Store* store_;
  detail::SnapReplay* replay_;  ///< the owning session's replay state
  tel::LaneTelemetry* tel_;
  tel::LaneTrace* trc_;
  std::vector<std::pair<SnapKind, int>> slots_;  ///< bound (kind, bucket)
};

/// RAII lane handle and the store's entire per-key surface. Obtained from
/// C2Store::open_session(); the lane is released back to the registry on
/// destruction (or close()). Move-only. A session is a single-client handle:
/// one session must not be used from two threads at once (its lane indexes
/// per-thread state in the underlying constructions) — open one per worker.
class C2Session {
 public:
  C2Session() = default;  ///< invalid (valid() == false) until move-assigned
  C2Session(C2Session&& o) noexcept
      : store_(o.store_),
        tel_lane_(o.tel_lane_),
        trc_lane_(o.trc_lane_),
        snap_(std::move(o.snap_)),
        lane_(o.lane_) {
    o.store_ = nullptr;
    o.tel_lane_ = nullptr;
    o.trc_lane_ = nullptr;
    o.lane_ = -1;
  }
  C2Session& operator=(C2Session&& o) noexcept {
    if (this != &o) {
      // Destruction semantics for the overwritten session: like ~C2Session,
      // swallow the (allocation-failure-only) close error paths rather than
      // throw from noexcept.
      try {
        close();
      } catch (...) {
      }
      store_ = o.store_;
      tel_lane_ = o.tel_lane_;
      trc_lane_ = o.trc_lane_;
      snap_ = std::move(o.snap_);
      lane_ = o.lane_;
      o.store_ = nullptr;
      o.tel_lane_ = nullptr;
      o.trc_lane_ = nullptr;
      o.lane_ = -1;
    }
    return *this;
  }
  C2Session(const C2Session&) = delete;
  C2Session& operator=(const C2Session&) = delete;
  ~C2Session() {
    // A destructor must not throw. Lane recycling is unbounded, so the only
    // conceivable close() failure left is allocation failure inside the
    // recycle set's segment growth — swallowed here, observable via an
    // explicit close() instead.
    try {
      close();
    } catch (...) {
    }
  }

  /// Releases the lane early; idempotent. Invalidates every ref bound here.
  inline void close();
  bool valid() const { return store_ != nullptr; }
  /// The acquired lane (< cfg.max_threads); exposed for diagnostics only.
  int lane() const { return lane_; }

  // --- typed key-bound refs: hash once, then cached-pointer ops ---
  inline MaxRef max(uint64_t key);
  inline MaxRef max(std::string_view key);
  inline CounterRef counter(uint64_t key);
  inline CounterRef counter(std::string_view key);
  inline TasRef tas(uint64_t key);
  inline TasRef tas(std::string_view key);
  inline SetRef set(uint64_t key);
  inline SetRef set(std::string_view key);

  // --- one-shot conveniences: bind + op per call (per-op routing cost) ---
  void max_write(uint64_t key, int64_t v) { max(key).write(v); }
  void max_write(std::string_view key, int64_t v) { max(key).write(v); }
  int64_t max_read(uint64_t key) { return max(key).read(); }
  int64_t max_read(std::string_view key) { return max(key).read(); }
  int64_t counter_inc(uint64_t key) { return counter(key).inc(); }
  int64_t counter_inc(std::string_view key) { return counter(key).inc(); }
  int64_t counter_read(uint64_t key) { return counter(key).read(); }
  int64_t counter_read(std::string_view key) { return counter(key).read(); }
  int64_t test_and_set(uint64_t key) { return tas(key).test_and_set(); }
  int64_t test_and_set(std::string_view key) { return tas(key).test_and_set(); }
  int64_t tas_read(uint64_t key) { return tas(key).read(); }
  int64_t tas_read(std::string_view key) { return tas(key).read(); }
  ResetResult tas_reset(uint64_t key) { return tas(key).reset(); }
  ResetResult tas_reset(std::string_view key) { return tas(key).reset(); }
  void set_put(uint64_t key, int64_t item) { set(key).put(item); }
  void set_put(std::string_view key, int64_t item) { set(key).put(item); }
  int64_t set_take(uint64_t key) { return set(key).take(); }
  int64_t set_take(std::string_view key) { return set(key).take(); }

  // --- online resizing (PR 9) ---
  /// Grows the store to `new_shards` slots (power of two), live: claims the
  /// next routing epoch, migrates moved per-shard state by idempotent
  /// monotone replay ON THIS SESSION'S LANE, journals a kResize marker, then
  /// publishes. Concurrent traffic keeps running throughout (the dual-write
  /// Dekker in the refs covers the window). Returns kInstalled when this call
  /// did the migration; kNoop when new_shards <= the current count;
  /// kInFlight when another resize holds the epoch claim (including an
  /// ABANDONED claim — a resizer that died mid-migration wedges future
  /// resizes, never the data path); kPoisoned when an earlier migration
  /// threw. Uses this session's lane because migration replays write_max /
  /// test&set as a lane-indexed writer.
  inline ResizeStatus resize(int new_shards);

  // --- multi-key snapshots and transfers (journal-backed; see SnapshotRef) ---
  /// Binds a reusable snapshot over `keys` (route once, snapshot many).
  inline SnapshotRef snapshot_ref(const std::vector<SnapKey>& keys);
  /// One-shot bind + read (the per-op routing cost, like the one-shot refs).
  inline std::vector<int64_t> snapshot(const std::vector<SnapKey>& keys);
  /// All-counters convenience: one ledger balance per key.
  inline std::vector<int64_t> snapshot_counters(const std::vector<uint64_t>& keys);
  /// Atomically moves `amount` from `from_key`'s to `to_key`'s ledger balance
  /// — ONE journal entry, so every snapshot sees either both sides or
  /// neither (the transfer_audit conservation invariant). Balances may go
  /// negative; a negative amount transfers the other way. Visible only on the
  /// snapshot facet (the Thm 9 counter is inc-only). Returns the journal
  /// ticket (diagnostics).
  inline int64_t transfer(uint64_t from_key, uint64_t to_key, int64_t amount);
  inline int64_t transfer(std::string_view from_key, std::string_view to_key,
                          int64_t amount);

  // --- aggregates, forwarded to the store ---
  inline int64_t global_max();
  inline int64_t counter_sum();

 private:
  friend class C2Store;
  inline C2Session(C2Store* store, int lane);  // defined after C2Store

  /// Lazily-created replay state shared by every SnapshotRef bound here.
  inline detail::SnapReplay& snap_state();
  /// Both transfer overloads: one journal entry between two hashed keys.
  inline int64_t transfer_hashed(uint64_t from_hash, uint64_t to_hash,
                                 int64_t amount);

  C2Store* store_ = nullptr;
  tel::LaneTelemetry* tel_lane_ = nullptr;  ///< cached lane telemetry block
  tel::LaneTrace* trc_lane_ = nullptr;      ///< cached lane trace log
  std::unique_ptr<detail::SnapReplay> snap_;
  int lane_ = -1;
};

class C2Store {
 public:
  static constexpr int64_t kEmpty = rt::NativeSet::kEmpty;

  explicit C2Store(const C2StoreConfig& cfg);
  ~C2Store();
  C2Store(const C2Store&) = delete;
  C2Store& operator=(const C2Store&) = delete;

  // --- sessions (the only door to the per-key surface) ---
  /// Acquires a lane, BLOCKING while all cfg.max_threads lanes are held: the
  /// caller enqueues on the registry's consensus-2 handoff queue and parks
  /// until a closing session hands its lane over directly — FIFO-fair under
  /// full-lane contention, no busy-spinning and no caller-side retry loop
  /// (service/lane_registry.h, runtime/handoff_queue.h). Never fails for
  /// exhaustion; use try_open_session() / open_session_for() to bound the
  /// wait. CAUTION — waiting replaces the old exhaustion error, so a caller
  /// that holds all cfg.max_threads sessions ITSELF (the misuse the retired
  /// PreconditionError used to catch) now self-deadlocks: it parks with no
  /// possible waker. Diagnose a suspect hang via lane_handoff_parks() /
  /// lane_handoff_enqueued(); callers that might over-hold should use
  /// open_session_for() instead.
  C2Session open_session();
  /// Like open_session() but returns an invalid session when no lane is free
  /// (never waits).
  C2Session try_open_session();
  /// Like open_session() but gives up after `timeout`, returning an invalid
  /// session. A lane handed over in the timeout's race window is kept (the
  /// session is valid) — lanes are never dropped.
  C2Session open_session_for(std::chrono::nanoseconds timeout);

  // --- online resizing (PR 9) ---
  /// Convenience wrapper around C2Session::resize: opens its own (blocking)
  /// session for the migration lane. Prefer the session method inside worker
  /// code — this one can block on lane exhaustion like open_session().
  ResizeStatus resize(int new_shards);
  /// TEST ONLY: claims the next epoch and abandons it without migrating or
  /// publishing — models a resizer killed mid-flight. The store keeps serving
  /// the published epoch; later resizes return kInFlight forever (the
  /// documented recovery contract, pinned by tests/resize_test.cpp).
  ResizeStatus debug_abandon_resize(int new_shards) {
    rt::RoutingEpoch::Claim c;
    return epochs_.try_begin(new_shards, c);
  }

  // --- aggregates ---
  /// Digest read: one fetch&add(0); wait-free, strongly linearizable as its
  /// own facet, and epoch-independent (lane-keyed — exact across resizes).
  /// Cross-facet caveat: MaxRef::write updates the shard register BEFORE the
  /// digest, so a client that reads a value via MaxRef::read can briefly
  /// observe global_max() lagging behind it while the writer is between its
  /// two updates; each facet is individually consistent. The write order
  /// (shard first, digest never ahead of any shard) is pinned by
  /// tests/service_sim_test.cpp — reordering it fails loudly there.
  int64_t global_max();
  /// Sum digest read: one fetch&add(0) on the CounterSumDigest word —
  /// wait-free, strongly linearizable as its own facet (checker-verified via
  /// the sim twin), and epoch-independent (exact across resizes — the only
  /// exact whole-store count once a resize has duplicated in-window
  /// increments on the slot facet). Same cross-facet contract as
  /// global_max(): CounterRef::inc updates the shard counter BEFORE the
  /// digest, so the digest never leads any keyed counter read, and may
  /// briefly lag one (both directions pinned by tests/service_sim_test.cpp).
  int64_t counter_sum();

  // --- introspection ---
  /// Shard count of the newest PUBLISHED routing epoch (grows over time).
  int shard_count() const { return router_.shard_count(); }
  int initialized_shards() const;
  const C2StoreConfig& config() const { return cfg_; }
  int shard_of(uint64_t key) const { return router_.shard_of(key); }
  int shard_of(std::string_view key) const { return router_.shard_of(key); }
  /// The published routing epoch (0 until the first successful resize).
  int64_t routing_epoch() const { return epochs_.current_epoch(); }
  /// Fresh lane tickets issued so far (diagnostics).
  int64_t lane_tickets_issued() const { return lanes_.tickets_issued(); }
  /// Lanes handed directly from a closing session to a blocked open_session()
  /// (diagnostics; never touched the free set).
  int64_t lane_handoff_deliveries() const { return lanes_.handoff_deliveries(); }
  /// Times a blocked open_session() parked / had its slot revoked
  /// (diagnostics; the no-busy-spin stress bounds ride on these).
  int64_t lane_handoff_parks() const { return lanes_.handoff_parks(); }
  int64_t lane_handoff_revocations() const { return lanes_.handoff_revocations(); }
  int64_t lane_handoff_enqueued() const { return lanes_.handoff_enqueued(); }
  /// Counter adds contributed through `lane` (diagnostics; the sum digest's
  /// single-writer per-lane component — never on the counter_sum() read
  /// path; racy while the lane's owner is adding, exact at quiescence).
  int64_t lane_counter_adds(int lane) const {
    return sum_digest_.lane_contribution(lane);
  }
  /// Journal tickets issued so far (diagnostics; may exceed the published
  /// prefix while deposits are in flight — see keyed_version_digest.h).
  int64_t journal_tickets() const { return journal_.tickets_issued(); }

  // --- capture (src/telemetry/; all of it compiles out under
  // --- C2SL_CAPTURE=0) ---
  /// Full metrics snapshot: the racy per-lane counter/histogram scans (exact
  /// at quiescence) and the session-layer counters above — the
  /// c2sl-metrics-v1 payload (tel::to_json / tel::to_prometheus in
  /// telemetry/export.h).
  tel::MetricsSnapshot metrics_snapshot() const;
  /// Drains every lane's trace log into a plain-data dump for
  /// tel::trace_to_json / tel::trace_to_chrome and tools/trace_audit.py.
  /// Safe against live writers (release/acquire publication per record);
  /// for a complete history, drain after sessions quiesce.
  tel::TraceDump trace_dump() const {
    return trace_.dump(cfg_.max_threads, cfg_.initial_shards);
  }
  /// The live trace root, for tel::dump_trace_tail (the assert hook's
  /// post-mortem, installed per store) and tests.
  const tel::StoreTrace& trace() const { return trace_; }

 private:
  friend class C2Session;
  friend class detail::ShardRef;
  friend class MaxRef;
  friend class CounterRef;
  friend class TasRef;
  friend class SetRef;
  friend class SnapshotRef;

  struct alignas(128) ShardSlot {
    rt::NativeReadableTAS claim;           // Thm 5 readable test&set: init winner
    std::atomic<ShardObjects*> objs{nullptr};
    std::atomic<bool> poisoned{false};     // claim winner threw before publishing
  };

  /// Validates the config; every config error surfaces here with a
  /// service-level message, before any member construction.
  static C2StoreConfig validate(C2StoreConfig cfg);

  /// The one session-open epilogue of the three open paths: records the
  /// open (and its blocking wait) in the lane's telemetry and trace, then
  /// binds the session.
  C2Session begin_session(int lane, int64_t wait_ns);

  int route(uint64_t key) const { return router_.shard_of(key); }
  int route(std::string_view key) const { return router_.shard_of(key); }
  /// Key's slot under `epoch`'s mask (the epoch must have been exposed by a
  /// stamp read — see RoutingEpoch::shards_of).
  int slot_under(uint64_t hash, int64_t epoch) const {
    return static_cast<int>(
        hash & (static_cast<uint64_t>(epochs_.shards_of(epoch)) - 1));
  }
  /// Key's journal/snapshot bucket: the INITIAL mask, forever (the journal
  /// facet is epoch-independent by construction).
  int journal_slot(uint64_t hash) const {
    return static_cast<int>(hash & initial_mask_);
  }

  /// Folds journal entries [r.cursor, tail) into r's accumulators; replay is
  /// a deterministic function of `tail`, which is what makes every snapshot's
  /// tail FAA(0) its linearization point (defined in c2store.cpp).
  void replay_journal(detail::SnapReplay& r, int64_t tail);

  /// The claimed-epoch migration: for every NEW slot, replay its parent
  /// slot's monotone state (write_max / counter re-add / TAS set-ness) on
  /// `lane`, then journal the kResize marker. Defined in c2store.cpp.
  ResizeStatus resize_with_lane(int lane, int new_shards);
  void migrate(int lane, const rt::RoutingEpoch::Claim& claim);

  /// Get-or-lazily-initialize the slot's objects (readable-TAS guarded).
  ShardObjects& shard(int s);
  /// Initialized objects or nullptr; never initializes (and never
  /// materialises the slot's spine segment either).
  ShardObjects* peek(int s) const {
    const ShardSlot* sl = slots_.peek(static_cast<size_t>(s));
    // c2sl-atomic: load acquire — publication read; never initializes
    return sl ? sl->objs.load(std::memory_order_acquire) : nullptr;
  }

  C2StoreConfig cfg_;
  /// The routing-epoch spine: published shard counts, resize claims, and the
  /// stamp word the refs' revalidation/Dekker reads ride on.
  rt::RoutingEpoch epochs_;
  ShardRouter router_;  ///< live mode: masks under the published epoch
  uint64_t initial_mask_;
  /// Shard slots on a lazily-grown segmented spine — resize() extends the
  /// index range; low slots are PHYSICALLY SHARED across epochs (mask
  /// nesting: a key that stays keeps its exact slot object).
  rt::SegmentedArray<ShardSlot> slots_;
  LaneRegistry lanes_;
  /// Store-level max digest; MaxRef::write updates it after the shard write so
  /// global_max() is a single-word read. Lane-keyed: epoch-independent.
  rt::NativeMaxRegister64 digest_;
  /// Store-level sum digest; CounterRef::inc updates it after the shard
  /// counter win so counter_sum() is a single-word read. No configuration:
  /// the total is 63-bit bounded and the per-lane cells ride on a segmented
  /// spine (runtime/counter_sum_digest.h). Lane-keyed: epoch-independent.
  rt::CounterSumDigest sum_digest_;
  /// The write journal behind session.snapshot()/transfer(): every keyed
  /// write appends one entry AFTER its shard-object and digest updates (the
  /// journal never leads the keyed read paths — the same pinned cross-facet
  /// order as the digests; tests/snapshot_sim_test.cpp). Unbounded, like the
  /// other segmented spines. Bucketed under the initial mask: epoch-
  /// independent.
  rt::KeyedVersionDigest journal_;
  /// Lane-local metrics (telemetry.h); no shared word. An empty shell under
  /// C2SL_CAPTURE=0. Mutable: ref hot paths reach it through const-agnostic
  /// session state, and its lane blocks are single-writer by the session
  /// discipline.
  mutable tel::StoreTelemetry tel_;
  /// Lane-local linearization-witness trace logs (telemetry/trace.h). An
  /// empty shell under C2SL_CAPTURE=0. Mutable for the same reason as tel_.
  mutable tel::StoreTrace trace_;
};

// --- inline hot paths -------------------------------------------------------

namespace detail {
inline ShardRef::ShardRef(C2Store* store, int lane, uint64_t hash,
                          tel::LaneTelemetry* tel, tel::LaneTrace* trc)
    : store_(store), tel_(tel), trc_(trc), hash_(hash), lane_(lane) {
  // Bind under the published epoch of a seq_cst stamp read (the read also
  // carries visibility of that epoch's table entry).
  epoch_ = rt::RoutingEpoch::published_epoch(store_->epochs_.stamp());
  shard_ = store_->slot_under(hash_, epoch_);
}
inline ShardRef::ShardRef(C2Store* store, int lane, uint64_t hash,
                          tel::LaneTelemetry* tel, tel::LaneTrace* trc,
                          PinInitialRouting)
    : store_(store), tel_(tel), trc_(trc), hash_(hash), epoch_(-1),
      lane_(lane), shard_(store->journal_slot(hash)) {}

inline ShardObjects* ShardRef::resolved() {
  if (!objs_) objs_ = store_->peek(shard_);
  return objs_;
}
inline ShardObjects& ShardRef::ensure() {
  if (!objs_) objs_ = &store_->shard(shard_);
  return *objs_;
}
inline void ShardRef::revalidate() {
  if (rt::RoutingEpoch::published_epoch(store_->epochs_.stamp_relaxed()) ==
      epoch_) {
    return;  // hot path: one relaxed load, no re-hash, no re-route
  }
  // Epoch changed (or the relaxed load raced a publish): rebind from the
  // cached hash under the current published mask. Cold — once per resize per
  // ref; the seq_cst read orders the new epoch's table entry.
  epoch_ = rt::RoutingEpoch::published_epoch(store_->epochs_.stamp());
  int s = store_->slot_under(hash_, epoch_);
  if (s != shard_) {
    shard_ = s;
    objs_ = nullptr;  // new slot: drop the cached object pointer
  }
}
template <typename Apply>
inline void ShardRef::settle(const Apply& apply) {
  int64_t applied_epoch = epoch_;
  int applied_slot = shard_;
  // c2sl annotation lives in RoutingEpoch::stamp(); this loop is the writer
  // half of the install/recheck Dekker pair (see class comment).
  int64_t st = store_->epochs_.stamp();
  while (rt::RoutingEpoch::newest_epoch(st) != applied_epoch) {
    applied_epoch = rt::RoutingEpoch::newest_epoch(st);
    int s = store_->slot_under(hash_, applied_epoch);
    if (s != applied_slot) {
      applied_slot = s;
      apply(store_->shard(s));
    }
    // Confirm no newer install slipped in between the re-application and
    // here; a stable stamp proves (in the seq_cst total order) that any later
    // migration's replay must observe the re-applied slot state.
    st = store_->epochs_.stamp();
  }
}
}  // namespace detail

inline void MaxRef::write(int64_t v) {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kMaxWrite, shard_, v);
  tel::TraceScope tr(trc_, tel::TraceOp::kMaxWrite,
                     store_->journal_slot(hash_), v);
  revalidate();
  // Shard register FIRST, digest second, journal LAST: neither derived facet
  // ever runs ahead of the shard registers (pinned cross-facet invariants;
  // see global_max() and tests/snapshot_sim_test.cpp). The Dekker settle
  // runs after all three — its re-applications are idempotent merges.
  ensure().max.write_max(lane_, v);
  store_->digest_.write_max(lane_, v);
  // The journal ticket IS this write's linearization witness on the
  // snapshot facet (its own FAA step) — captured, not discarded.
  tr.set_witness(store_->journal_.append(rt::KeyedVersionDigest::Kind::kMaxWrite,
                                         store_->journal_slot(hash_), 0, v));
  tr.set_epoch(epoch_);
  settle([&](ShardObjects& o) { o.max.write_max(lane_, v); });
}
inline int64_t MaxRef::read() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kMaxRead, shard_, 0);
  tel::TraceScope tr(trc_, tel::TraceOp::kMaxRead, shard_, 0);
  revalidate();
  ShardObjects* p = resolved();
  int64_t v = p ? p->max.read_max() : 0;
  tr.set_result(v);
  return v;
}

inline int64_t CounterRef::inc() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kCounterInc, shard_, 0);
  tel::TraceScope tr(trc_, tel::TraceOp::kCounterInc,
                     store_->journal_slot(hash_), 1);
  revalidate();
  // Shard counter FIRST, sum digest second, journal LAST: neither derived
  // facet ever runs ahead of any keyed counter read (pinned cross-facet
  // invariant, mirroring MaxRef::write; see C2Store::counter_sum() and
  // tests/snapshot_sim_test.cpp). The settle re-application below reaches
  // only the SLOT facet — digest and journal see exactly one increment, which
  // is why they stay exact across resizes while sums over slots
  // over-approximate.
  int64_t prev = ensure().counter.fetch_and_increment();
  store_->sum_digest_.add(lane_);
  // Witness: the journal ticket (the inc's own FAA step on the snapshot
  // facet). With the trace, prev lets the auditor replay each bucket's
  // pre-increment sequence exactly (absent resizes).
  tr.set_witness(
      store_->journal_.append(rt::KeyedVersionDigest::Kind::kCounterInc,
                              store_->journal_slot(hash_), 0, 1));
  tr.set_result(prev);
  tr.set_epoch(epoch_);
  settle([&](ShardObjects& o) { o.counter.fetch_and_increment(); });
  return prev;
}
inline int64_t CounterRef::read() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kCounterRead, shard_, 0);
  tel::TraceScope tr(trc_, tel::TraceOp::kCounterRead, shard_, 0);
  revalidate();
  ShardObjects* p = resolved();
  int64_t v = p ? p->counter.read() : 0;
  tr.set_result(v);
  return v;
}

inline int64_t TasRef::test_and_set() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kTasSet, shard_, 0);
  tel::TraceScope tr(trc_, tel::TraceOp::kTasSet, shard_, 0);
  revalidate();
  int64_t won = ensure().tas.test_and_set(lane_);
  // Set-ness (monotone) migrates; the WINNER decision is per-epoch, like the
  // key-collision semantics (see header: "what survives a resize").
  settle([&](ShardObjects& o) { o.tas.test_and_set(lane_); });
  tr.set_result(won);
  return won;
}
inline int64_t TasRef::read() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kTasRead, shard_, 0);
  tel::TraceScope tr(trc_, tel::TraceOp::kTasRead, shard_, 0);
  revalidate();
  ShardObjects* p = resolved();
  int64_t v = p ? p->tas.read() : 0;
  tr.set_result(v);
  return v;
}
inline ResetResult TasRef::reset() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kTasReset, shard_, 0);
  tel::TraceScope tr(trc_, tel::TraceOp::kTasReset, shard_, 0);
  revalidate();
  ShardObjects& o = ensure();
  if (o.tas.generation() >= o.tas.max_resets()) {
    tr.set_result(static_cast<int64_t>(ResetResult::kBudgetSpent));
    return ResetResult::kBudgetSpent;
  }
  o.tas.reset(lane_);
  // No settle: a reset is not a monotone merge. A reset racing a resize may
  // be absorbed by the migration replay (the replay re-sets set-ness it read
  // before the reset) — folded under the existing "serialize resets
  // externally" advisory above.
  tr.set_result(static_cast<int64_t>(ResetResult::kOk));
  return ResetResult::kOk;
}

inline void SetRef::put(int64_t item) {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kSetPut, shard_, item);
  tel::TraceScope tr(trc_, tel::TraceOp::kSetPut, shard_, item);
  ensure().set.put(item);
}
inline int64_t SetRef::take() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kSetTake, shard_, 0);
  tel::TraceScope tr(trc_, tel::TraceOp::kSetTake, shard_, 0);
  ShardObjects* p = resolved();
  int64_t v = p ? p->set.take() : C2Store::kEmpty;
  tr.set_result(v);
  return v;
}

inline C2Session::C2Session(C2Store* store, int lane)
    : store_(store),
      tel_lane_(store->tel_.lane(lane)),
      trc_lane_(store->trace_.lane(lane)),
      lane_(lane) {}

inline void C2Session::close() {
  if (store_) {
    store_->trace_.record_event(trc_lane_, tel::TraceOp::kSessionClose,
                                /*key=*/-1, /*arg=*/0, /*result=*/lane_,
                                /*witness=*/-1, /*epoch=*/-1);
    store_->lanes_.release(lane_);
    store_ = nullptr;
    tel_lane_ = nullptr;
    trc_lane_ = nullptr;
    snap_.reset();  // replay state dies with the session (refs are invalid now)
    lane_ = -1;
  }
}

inline MaxRef C2Session::max(uint64_t key) {
  C2SL_CHECK(valid(), "session is closed");
  return MaxRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_);
}
inline MaxRef C2Session::max(std::string_view key) {
  C2SL_CHECK(valid(), "session is closed");
  return MaxRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_);
}
inline CounterRef C2Session::counter(uint64_t key) {
  C2SL_CHECK(valid(), "session is closed");
  return CounterRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_);
}
inline CounterRef C2Session::counter(std::string_view key) {
  C2SL_CHECK(valid(), "session is closed");
  return CounterRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_);
}
inline TasRef C2Session::tas(uint64_t key) {
  C2SL_CHECK(valid(), "session is closed");
  return TasRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_);
}
inline TasRef C2Session::tas(std::string_view key) {
  C2SL_CHECK(valid(), "session is closed");
  return TasRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_);
}
inline SetRef C2Session::set(uint64_t key) {
  C2SL_CHECK(valid(), "session is closed");
  return SetRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_,
                detail::ShardRef::PinInitialRouting{});
}
inline SetRef C2Session::set(std::string_view key) {
  C2SL_CHECK(valid(), "session is closed");
  return SetRef(store_, lane_, hash_key(key), tel_lane_, trc_lane_,
                detail::ShardRef::PinInitialRouting{});
}

inline ResizeStatus C2Session::resize(int new_shards) {
  C2SL_CHECK(valid(), "session is closed");
  return store_->resize_with_lane(lane_, new_shards);
}

// --- snapshots and transfers ------------------------------------------------

inline detail::SnapReplay& C2Session::snap_state() {
  if (!snap_) {
    snap_ = std::make_unique<detail::SnapReplay>(store_->cfg_.initial_shards);
  }
  return *snap_;
}

inline SnapshotRef C2Session::snapshot_ref(const std::vector<SnapKey>& keys) {
  C2SL_CHECK(valid(), "session is closed");
  std::vector<std::pair<SnapKind, int>> slots;
  slots.reserve(keys.size());
  for (const SnapKey& k : keys) {
    C2SL_CHECK(k.kind == SnapKind::kCounter || k.kind == SnapKind::kMax,
               "unknown snapshot key kind");
    slots.emplace_back(k.kind, store_->journal_slot(hash_key(k.key)));
  }
  return SnapshotRef(store_, &snap_state(), tel_lane_, trc_lane_,
                     std::move(slots));
}

inline std::vector<int64_t> C2Session::snapshot(const std::vector<SnapKey>& keys) {
  return snapshot_ref(keys).read();
}

inline std::vector<int64_t> C2Session::snapshot_counters(
    const std::vector<uint64_t>& keys) {
  std::vector<SnapKey> ks;
  ks.reserve(keys.size());
  for (uint64_t k : keys) ks.push_back(SnapKey::counter(k));
  return snapshot(ks);
}

inline int64_t C2Session::transfer(uint64_t from_key, uint64_t to_key,
                                   int64_t amount) {
  return transfer_hashed(hash_key(from_key), hash_key(to_key), amount);
}
inline int64_t C2Session::transfer(std::string_view from_key,
                                   std::string_view to_key, int64_t amount) {
  return transfer_hashed(hash_key(from_key), hash_key(to_key), amount);
}
inline int64_t C2Session::transfer_hashed(uint64_t from_hash, uint64_t to_hash,
                                          int64_t amount) {
  C2SL_CHECK(valid(), "session is closed");
  tel::OpScope t(store_->tel_, tel_lane_, tel::TelOp::kTransfer, -1, amount);
  int from = store_->journal_slot(from_hash);
  int to = store_->journal_slot(to_hash);
  tel::TraceScope tr(trc_lane_, tel::TraceOp::kTransfer, from, amount);
  tr.set_key_b(static_cast<int32_t>(to));
  int64_t ticket = store_->journal_.append(
      rt::KeyedVersionDigest::Kind::kTransfer, from, to, amount);
  tr.set_witness(ticket);
  tr.set_result(ticket);
  return ticket;
}

inline std::vector<int64_t> SnapshotRef::read() {
  tel::OpScope t(store_->tel_, tel_, tel::TelOp::kSnapshot, -1,
                 static_cast<int64_t>(slots_.size()));
  tel::TraceScope tr(trc_, tel::TraceOp::kSnapshot, -1,
                     static_cast<int64_t>(slots_.size()));
  // The single tail FAA(0) IS the snapshot's linearization point; everything
  // after is a deterministic function of its result.
  int64_t tail = store_->journal_.version();
  store_->replay_journal(*replay_, tail);
  // Witness = the tail; result = total journaled incs below it. The auditor
  // replays the witnessed prefix and must reproduce this count exactly.
  tr.set_witness(tail);
  tr.set_result(replay_->total_incs);
  std::vector<int64_t> out;
  out.reserve(slots_.size());
  for (const auto& [kind, shard] : slots_) {
    out.push_back(kind == SnapKind::kCounter
                      ? replay_->ctr_net[static_cast<size_t>(shard)]
                      : replay_->max_seen[static_cast<size_t>(shard)]);
  }
  return out;
}

// Aggregates carry session telemetry (store-level calls made without a
// session are NOT instrumented — telemetry is lane-local by design).
inline int64_t C2Session::global_max() {
  C2SL_CHECK(valid(), "session is closed");
  tel::OpScope t(store_->tel_, tel_lane_, tel::TelOp::kGlobalMax, -1, 0);
  tel::TraceScope tr(trc_lane_, tel::TraceOp::kGlobalMax, -1, 0);
  int64_t v = store_->global_max();
  // The digest FAA(0) value is its own witness: the max facet is monotone,
  // so the auditor checks these never regress under real-time order.
  tr.set_result(v);
  tr.set_witness(v);
  return v;
}
inline int64_t C2Session::counter_sum() {
  C2SL_CHECK(valid(), "session is closed");
  tel::OpScope t(store_->tel_, tel_lane_, tel::TelOp::kCounterSum, -1, 0);
  tel::TraceScope tr(trc_lane_, tel::TraceOp::kCounterSum, -1, 0);
  int64_t v = store_->counter_sum();
  // The sum digest FAA(0) value is its own witness (monotone: incs only).
  tr.set_result(v);
  tr.set_witness(v);
  return v;
}

}  // namespace c2sl::svc
