#include "service/c2store.h"

#include <algorithm>
#include <vector>

#include "telemetry/trace_export.h"
#include "util/assert.h"

namespace c2sl::svc {

// Runs in the init list, before any member construction: every config error
// surfaces here with a service-level message, and ShardObjects construction
// below can no longer throw for config reasons (only bad_alloc remains).
C2StoreConfig C2Store::validate(C2StoreConfig cfg) {
  C2SL_CHECK(cfg.initial_shards > 0 &&
                 (cfg.initial_shards & (cfg.initial_shards - 1)) == 0,
             "initial_shards must be a power of two");
  C2SL_CHECK(cfg.max_threads >= 1, "need at least one session lane");
  C2SL_CHECK(cfg.max_value >= 1, "max_value must be at least 1");
  C2SL_CHECK(cfg.tas_max_resets >= 0, "tas_max_resets must be non-negative");
  C2SL_CHECK(static_cast<int64_t>(cfg.max_threads) * cfg.max_value <= 63,
             "max_threads * max_value must fit in 63 bits");
  C2SL_CHECK(static_cast<int64_t>(cfg.max_threads) * (cfg.tas_max_resets + 1) <= 63,
             "max_threads * (tas_max_resets + 1) must fit in 63 bits");
  return cfg;
}

C2Store::C2Store(const C2StoreConfig& cfg)
    : cfg_(validate(cfg)),
      epochs_(cfg_.initial_shards),
      router_(&epochs_),
      initial_mask_(static_cast<uint64_t>(cfg_.initial_shards) - 1),
      lanes_(cfg_.max_threads),
      digest_(cfg_.max_threads, cfg_.max_value) {
  // Route assert failures through this store's witness-trace tail (last
  // store constructed wins the slot; the dump is a no-op under
  // C2SL_CAPTURE=0). The context is the store itself, so concurrent
  // constructors share no state.
  set_failure_hook(
      [](void* self) {
        const auto* st = static_cast<const C2Store*>(self);
        tel::dump_trace_tail(stderr, st->trace_, st->cfg_.max_threads);
      },
      this);
}

C2Store::~C2Store() {
  clear_failure_hook(this);  // never clobbers a younger store's registration
  // Sweep up to the NEWEST epoch's count, published or not: an abandoned or
  // poisoned install may have materialised slots beyond the published range.
  int total = epochs_.shards_of(rt::RoutingEpoch::newest_epoch(epochs_.stamp()));
  for (int s = 0; s < total; ++s) {
    ShardSlot* sl = slots_.peek(static_cast<size_t>(s));
    if (!sl) continue;  // segment never materialised: nothing to free
    // c2sl-atomic: load relaxed — destructor runs single-threaded by contract
    delete sl->objs.load(std::memory_order_relaxed);
  }
}

C2Session C2Store::open_session() {
  // Blocks while all lanes are held: the registry parks this caller on its
  // handoff queue and a closing session hands its lane over directly. The
  // timer measures that blocking window (the wait-time-spread metric rides
  // on the per-lane open_wait histograms this feeds).
  tel::OpenTimer timer;
  int lane = lanes_.acquire_blocking();
  return begin_session(lane, timer.elapsed_ns());
}

C2Session C2Store::try_open_session() {
  int lane = lanes_.try_acquire();
  if (lane == LaneRegistry::kNone) return C2Session();
  return begin_session(lane, 0);  // non-blocking: zero wait
}

C2Session C2Store::open_session_for(std::chrono::nanoseconds timeout) {
  tel::OpenTimer timer;
  int lane = lanes_.acquire_for(timeout);
  if (lane == LaneRegistry::kNone) return C2Session();
  return begin_session(lane, timer.elapsed_ns());
}

C2Session C2Store::begin_session(int lane, int64_t wait_ns) {
  tel_.record_open_wait(tel_.lane(lane), wait_ns);
  trace_.record_event(trace_.lane(lane), tel::TraceOp::kSessionOpen,
                      /*key=*/-1, /*arg=*/wait_ns, /*result=*/lane,
                      /*witness=*/-1, /*epoch=*/-1);
  return C2Session(this, lane);
}

ShardObjects& C2Store::shard(int s) {
  ShardSlot& slot = slots_.cell(static_cast<size_t>(s));
  // c2sl-atomic: load acquire — publication read; a non-null pointer carries
  // visibility of the constructed ShardObjects behind it
  ShardObjects* p = slot.objs.load(std::memory_order_acquire);
  if (p) return *p;
  if (slot.claim.test_and_set() == 0) {
    // We won the readable test&set: construct and publish. The publication is
    // a plain register write (consensus number 1) — still no CAS. The config
    // was validated up front, so only allocation failure can throw here; the
    // poison flag turns that into an error for the waiters instead of a
    // permanent spin (the one-shot claim is already consumed).
    try {
      p = new ShardObjects(cfg_);
    } catch (...) {
      // c2sl-atomic: store seq_cst — cold failure flag; cross-checked with the
      // slot pointer by spinning losers, so it stays at the strongest order
      slot.poisoned.store(true, std::memory_order_seq_cst);
      throw;
    }
    // c2sl-atomic: store release — the publish: the constructed ShardObjects
    // becomes visible to every acquire load of the slot pointer
    slot.objs.store(p, std::memory_order_release);
    C2SL_TEL_EVENT(tel::TelEvent::kShardInit);
    return *p;
  }
  // Another thread won the claim; its publication is at most a few stores
  // away, so losers spin on the pointer.
  // c2sl-atomic: load acquire — loser spin on the publish; pairs with the
  // release store above
  while (!(p = slot.objs.load(std::memory_order_acquire))) {
    // c2sl-atomic: load seq_cst — cold poison check inside the spin
    C2SL_CHECK(!slot.poisoned.load(std::memory_order_seq_cst),
               "shard initialization failed in another thread");
  }
  return *p;
}

// --- online resizing (PR 9) --------------------------------------------------

ResizeStatus C2Store::resize(int new_shards) {
  C2Session s = open_session();
  return s.resize(new_shards);
}

ResizeStatus C2Store::resize_with_lane(int lane, int new_shards) {
  rt::RoutingEpoch::Claim claim;
  ResizeStatus st = epochs_.try_begin(new_shards, claim);
  if (st != ResizeStatus::kInstalled) return st;
  // We own the installing epoch. From the install store on, every writer's
  // post-op Dekker recheck dual-applies under the new mask, so the replay
  // below plus the dual-write window covers every concurrent write
  // (docs/PROOFS.md, "epoch hand-off"). A throw during migration poisons the
  // claim — the store keeps serving the published epoch, and later resizes
  // report kPoisoned instead of wedging.
  try {
    migrate(lane, claim);
  } catch (...) {
    epochs_.poison(claim);
    throw;
  }
  // Journal the resize (after the replay, before the publish). The marker is
  // INFORMATIONAL: snapshot replay buckets under the initial mask forever and
  // skips it — it exists for audit tools and tests (keyed_version_digest.h).
  int64_t ticket =
      journal_.append(rt::KeyedVersionDigest::Kind::kResize, 0, 0,
                      static_cast<int64_t>(claim.shards));
  epochs_.publish(claim);
  // Trace the resize on the migrating lane: the kResize marker's ticket is
  // its journal-facet witness, and the claimed epoch rides in the epoch
  // field (the epoch stamp is the resize's own publication step).
  trace_.record_event(trace_.lane(lane), tel::TraceOp::kResize,
                      /*key=*/-1, /*arg=*/claim.shards,
                      /*result=*/static_cast<int64_t>(ResizeStatus::kInstalled),
                      /*witness=*/ticket, /*epoch=*/claim.epoch);
  return ResizeStatus::kInstalled;
}

// Migration replay: for every NEW slot j in [old_count, new_count), fold the
// monotone state of its parent slot (j masked down to the old count) in.
// Idempotent by monotonicity — write_max re-merge, counter re-add, TAS
// set-ness re-set — so racing writers that dual-apply the same state are
// harmless on every VALUE facet. Old slots intentionally keep their state
// (mask nesting makes them valid lower bounds; the duplication is why a sum
// over slots over-approximates after a resize while the lane-keyed digests
// stay exact). Unmaterialised parents are skipped: nothing to move,
// and the replay never materialises slots.
void C2Store::migrate(int lane, const rt::RoutingEpoch::Claim& claim) {
  int old_count = epochs_.shards_of(claim.epoch - 1);
  for (int j = old_count; j < claim.shards; ++j) {
    ShardObjects* src = peek(j & (old_count - 1));
    if (!src) continue;
    int64_t mx = src->max.read_max();
    int64_t cnt = src->counter.read();
    int64_t set = src->tas.read();
    if (mx == 0 && cnt == 0 && set == 0) continue;  // nothing to move
    ShardObjects& dst = shard(j);
    if (mx > 0) dst.max.write_max(lane, mx);
    for (int64_t i = 0; i < cnt; ++i) dst.counter.fetch_and_increment();
    if (set != 0) dst.tas.test_and_set(lane);
    C2SL_TEL_EVENT(tel::TelEvent::kKeysMigrated);
  }
}

int64_t C2Store::global_max() { return digest_.read_max(); }

int64_t C2Store::counter_sum() { return sum_digest_.read(); }

// Replays journal entries [r.cursor, tail) into the session-local per-shard
// accumulators. Deterministic: entry content is fixed at ticket time, so every
// replayer that reaches `tail` computes the same vectors regardless of how its
// cursor got there — which is what makes two same-tail snapshots identical and
// the FAA(0) tail read a legitimate linearization point. Bucket indices are
// INITIAL-mask for every entry kind (the snapshot facet is epoch-independent),
// so no entry can ever index outside the fixed accumulator vectors.
void C2Store::replay_journal(detail::SnapReplay& r, int64_t tail) {
  for (int64_t t = r.cursor; t < tail; ++t) {
    rt::KeyedVersionDigest::EntryView e = journal_.entry(t);
    switch (e.kind) {
      case rt::KeyedVersionDigest::Kind::kCounterInc:
        r.ctr_net[static_cast<size_t>(e.shard_a)] += e.v;
        r.total_incs += e.v;
        break;
      case rt::KeyedVersionDigest::Kind::kMaxWrite:
        r.max_seen[static_cast<size_t>(e.shard_a)] =
            std::max(r.max_seen[static_cast<size_t>(e.shard_a)], e.v);
        break;
      case rt::KeyedVersionDigest::Kind::kTransfer:
        r.ctr_net[static_cast<size_t>(e.shard_a)] -= e.v;
        r.ctr_net[static_cast<size_t>(e.shard_b)] += e.v;
        break;
      case rt::KeyedVersionDigest::Kind::kResize:
        // Informational marker (the new slot count in v) — the snapshot facet
        // buckets under the initial mask forever, so there is nothing to fold.
        break;
    }
  }
  r.cursor = tail;
}

int C2Store::initialized_shards() const {
  int count = 0;
  for (int s = 0; s < shard_count(); ++s) {
    if (peek(s)) ++count;
  }
  return count;
}

tel::MetricsSnapshot C2Store::metrics_snapshot() const {
  // Telemetry core first (the racy lane scans), then the session-layer
  // counters the registry and handoff queue already expose.
  tel::MetricsSnapshot s = tel_.snapshot(cfg_.max_threads, shard_count());
  s.lane_tickets = lane_tickets_issued();
  s.handoff_enqueued = lane_handoff_enqueued();
  s.handoff_deliveries = lane_handoff_deliveries();
  s.handoff_parks = lane_handoff_parks();
  s.handoff_revocations = lane_handoff_revocations();
  for (int lane = 0; lane < cfg_.max_threads; ++lane) {
    s.lane_counter_adds += lane_counter_adds(lane);
  }
  return s;
}

}  // namespace c2sl::svc
