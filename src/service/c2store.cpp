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
  // Journal entries pack initial-mask buckets into 24 bits; a larger store
  // would fail a keyed write inside the journal after its shard step.
  C2SL_CHECK(cfg.initial_shards <= rt::KeyedVersionDigest::kMaxBuckets,
             "initial_shards must be at most 2^24 (the journal's bucket field)");
  C2SL_CHECK(cfg.max_threads >= 1 && cfg.max_threads <= 64,
             "max_threads must be in 1..64 (one lane each in a 64-bit word)");
  const int64_t lane = rt::lane_max(cfg.max_threads);
  // A max write's value also goes into its journal entry: past the entry's
  // value field it would fail in append after its shard step.
  C2SL_CHECK(cfg.max_value >= 1 &&
                 cfg.max_value <= std::min(lane, rt::JournalCodec::kMaxValue),
             "max_value must be in 1..min(2^(64/max_threads) - 1, 2^37 - 1)");
  C2SL_CHECK(cfg.tas_max_resets >= 0 && cfg.tas_max_resets <= lane - 1,
             "tas_max_resets must be in 0..2^(64/max_threads) - 2");
  return cfg;
}

C2Store::C2Store(const C2StoreConfig& cfg)
    : cfg_(validate(cfg)),
      epochs_(cfg_.initial_shards),
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
  // The config was validated up front, so only allocation failure can throw
  // in the constructor; PublishOnce turns that into a named error for the
  // waiters instead of a permanent spin.
  return *slots_.cell(static_cast<size_t>(s)).get([this] {
    auto objs = std::make_unique<ShardObjects>(cfg_);
    C2SL_TEL_EVENT(tel::TelEvent::kShardInit);  // the publish follows
    return objs;
  });
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
// and the replay never materialises slots. The counter re-add is one
// fetch&increment per migrated count, each O(1) from the child's certified
// frontier, so moving a count of v costs O(v) in total.
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

void C2Store::replay_journal(detail::SnapReplay& r, int64_t tail) {
  r.fold(tail, [this](int64_t t) { return journal_.entry(t); });
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
  s.handoff_enqueued = lane_handoff_enqueued();
  s.handoff_deliveries = lane_handoff_deliveries();
  s.handoff_parks = lane_handoff_parks();
  s.handoff_revocations = lane_handoff_revocations();
  return s;
}

}  // namespace c2sl::svc
