#include "service/sim_bridge.h"

#include <algorithm>

#include "runtime/routing_epoch.h"
#include "service/c2store.h"
#include "util/assert.h"

namespace c2sl::svc {

namespace {
using Journal = rt::JournalCodec;
using Epoch = rt::RoutingEpoch;

void check_pow2(int shards) {
  C2SL_CHECK(shards > 0 && (shards & (shards - 1)) == 0,
             "shard count must be a power of two");
}

/// The scan reads: one collect of `read_shard` over every shard, repeated
/// under kDoubleCollect until two consecutive collects coincide.
template <typename ReadShard>
std::vector<int64_t> scan(int shards, AggRead read, const ReadShard& read_shard) {
  auto collect = [&] {
    std::vector<int64_t> view(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) view[static_cast<size_t>(s)] = read_shard(s);
    return view;
  };
  std::vector<int64_t> curr = collect();
  while (read == AggRead::kDoubleCollect) {
    std::vector<int64_t> next = collect();
    if (next == curr) break;
    curr = std::move(next);
  }
  return curr;
}
}  // namespace

// --- SimKeyedStore ----------------------------------------------------------

SimKeyedStore::SimKeyedStore(sim::World& world, std::string name, int n, int shards)
    : name_(std::move(name)), shards_(shards) {
  check_pow2(shards);
  for (int s = 0; s < shards; ++s) {
    regs_.push_back(std::make_unique<core::MaxRegisterFAA>(
        world, name_ + ".s" + std::to_string(s) + ".maxreg", n));
    ts_.push_back(std::make_unique<core::AtomicReadableTasArray>(
        world, name_ + ".s" + std::to_string(s) + ".M"));
    ctrs_.push_back(std::make_unique<core::FetchIncrement>(
        name_ + ".s" + std::to_string(s) + ".fai", *ts_.back()));
  }
}

std::string SimKeyedStore::max_object(int shard) const {
  return name_ + ".s" + std::to_string(shard) + ".max";
}

std::string SimKeyedStore::ctr_object(int shard) const {
  return name_ + ".s" + std::to_string(shard) + ".ctr";
}

void SimKeyedStore::max_write(sim::Ctx& ctx, uint64_t key, int64_t v) {
  int s = shard_of(key);
  sim::record_op(ctx, max_object(s), "WriteMax", num(v), [&] {
    regs_[static_cast<size_t>(s)]->write_max(ctx, v);
    return unit();
  });
}

int64_t SimKeyedStore::max_read(sim::Ctx& ctx, uint64_t key) {
  int s = shard_of(key);
  Val r = sim::record_op(ctx, max_object(s), "ReadMax", unit(), [&] {
    return num(regs_[static_cast<size_t>(s)]->read_max(ctx));
  });
  return as_num(r);
}

int64_t SimKeyedStore::counter_inc(sim::Ctx& ctx, uint64_t key) {
  int s = shard_of(key);
  Val r = sim::record_op(ctx, ctr_object(s), "FAI", unit(), [&] {
    return num(ctrs_[static_cast<size_t>(s)]->fetch_and_increment(ctx));
  });
  return as_num(r);
}

int64_t SimKeyedStore::counter_read(sim::Ctx& ctx, uint64_t key) {
  int s = shard_of(key);
  Val r = sim::record_op(ctx, ctr_object(s), "Read", unit(), [&] {
    return num(ctrs_[static_cast<size_t>(s)]->read(ctx));
  });
  return as_num(r);
}

// --- SimShardedMaxRegister / SimShardedCounter (the aggregate twins) -------

SimShardedMaxRegister::SimShardedMaxRegister(sim::World& world, std::string name,
                                             int n, int shards, AggRead read)
    : name_(std::move(name)), shards_(shards), read_(read) {
  check_pow2(shards);
  for (int s = 0; s < shards; ++s) {
    regs_.push_back(std::make_unique<core::MaxRegisterFAA>(
        world, name_ + ".shard" + std::to_string(s), n));
  }
  digest_ = std::make_unique<core::MaxRegisterFAA>(world, name_ + ".digest", n);
}

void SimShardedMaxRegister::write_max(sim::Ctx& ctx, int64_t v) {
  // Shard register FIRST, digest second — MaxRef::write's order (pinned by
  // tests/service_sim_test.cpp).
  int s = static_cast<int>(static_cast<uint64_t>(v) & static_cast<uint64_t>(shards_ - 1));
  regs_[static_cast<size_t>(s)]->write_max(ctx, v);
  if (read_ == AggRead::kDigest) digest_->write_max(ctx, v);
}

int64_t SimShardedMaxRegister::read_max(sim::Ctx& ctx) {
  if (read_ == AggRead::kDigest) return digest_->read_max(ctx);
  std::vector<int64_t> view =
      scan(shards_, read_, [&](int s) { return read_shard(ctx, s); });
  return *std::max_element(view.begin(), view.end());
}

int64_t SimShardedMaxRegister::read_shard(sim::Ctx& ctx, int s) {
  C2SL_CHECK(s >= 0 && s < shards_, "shard index out of range");
  return regs_[static_cast<size_t>(s)]->read_max(ctx);
}

Val SimShardedMaxRegister::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "WriteMax") {
    write_max(ctx, as_num(inv.args));
    return unit();
  }
  if (inv.name == "ReadMax") return num(read_max(ctx));
  if (inv.name == "ReadShard") {
    return num(read_shard(ctx, static_cast<int>(as_num(inv.args))));
  }
  C2SL_CHECK(false, "unknown operation on sharded max register: " + inv.name);
  return unit();
}

SimShardedCounter::SimShardedCounter(sim::World& world, std::string name,
                                     int shards, AggRead read)
    : name_(std::move(name)), shards_(shards), read_(read) {
  check_pow2(shards);
  for (int s = 0; s < shards; ++s) {
    ts_.push_back(std::make_unique<core::AtomicReadableTasArray>(
        world, name_ + ".M" + std::to_string(s)));
    ctrs_.push_back(std::make_unique<core::FetchIncrement>(
        name_ + ".ctr" + std::to_string(s), *ts_.back()));
  }
}

void SimShardedCounter::inc(sim::Ctx& ctx) {
  // Shard counter FIRST, digest second — CounterRef::inc's order (pinned by
  // tests/service_sim_test.cpp).
  int s = static_cast<int>(static_cast<uint64_t>(ctx.self) &
                           static_cast<uint64_t>(shards_ - 1));
  ctrs_[static_cast<size_t>(s)]->fetch_and_increment(ctx);
  if (read_ == AggRead::kDigest) digest_.add(ctx.self);
}

int64_t SimShardedCounter::read(sim::Ctx& ctx) {
  if (read_ == AggRead::kDigest) return digest_.read();
  int64_t sum = 0;
  for (int64_t v : scan(shards_, read_, [&](int s) { return read_shard(ctx, s); })) {
    sum += v;
  }
  return sum;
}

int64_t SimShardedCounter::read_shard(sim::Ctx& ctx, int s) {
  C2SL_CHECK(s >= 0 && s < shards_, "shard index out of range");
  return ctrs_[static_cast<size_t>(s)]->read(ctx);
}

Val SimShardedCounter::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "Inc") {
    this->inc(ctx);
    return unit();
  }
  if (inv.name == "Read") return num(read(ctx));
  if (inv.name == "ReadShard") {
    return num(read_shard(ctx, static_cast<int>(as_num(inv.args))));
  }
  C2SL_CHECK(false, "unknown operation on sharded counter: " + inv.name);
  return unit();
}

// --- SimKeyedSnapshot (the snapshot write journal) --------------------------

SimKeyedSnapshot::SimKeyedSnapshot(sim::World& world, std::string name, int n,
                                   int shards, bool naive_loop)
    : name_(std::move(name)), shards_(shards), naive_loop_(naive_loop) {
  C2SL_CHECK(shards >= 1 && shards <= 8, "spec packing supports up to 8 shards");
  for (int s = 0; s < shards; ++s) {
    ts_.push_back(std::make_unique<core::AtomicReadableTasArray>(
        world, name_ + ".M" + std::to_string(s)));
    ctrs_.push_back(std::make_unique<core::FetchIncrement>(
        name_ + ".ctr" + std::to_string(s), *ts_.back()));
    regs_.push_back(std::make_unique<core::MaxRegisterFAA>(
        world, name_ + ".reg" + std::to_string(s), n));
  }
}

void SimKeyedSnapshot::inc(sim::Ctx& ctx, int s) {
  // Shard object FIRST, journal LAST — the pinned cross-facet order shared
  // with the max/sum digests: the journal never runs ahead of the keyed reads.
  ctrs_[static_cast<size_t>(s)]->fetch_and_increment(ctx);
  journal_.append(Journal::Kind::kCounterInc, s, 0, 1);
}

void SimKeyedSnapshot::write_max(sim::Ctx& ctx, int s, int64_t v) {
  regs_[static_cast<size_t>(s)]->write_max(ctx, v);
  journal_.append(Journal::Kind::kMaxWrite, s, 0, v);
}

void SimKeyedSnapshot::transfer(sim::Ctx&, int from, int to, int64_t d) {
  // Journal-only: the ONE entry is what makes the debit and credit
  // inseparable at every snapshot cut (the conservation contract).
  journal_.append(Journal::Kind::kTransfer, from, to, d);
}

std::vector<int64_t> SimKeyedSnapshot::snap(sim::Ctx& ctx) {
  std::vector<int64_t> view;
  if (naive_loop_) {
    // Negative control: one pass of direct per-shard reads. Each read is
    // individually fine; the VECTOR is torn by any write landing between two
    // of them — the checker refutes this (not even linearizable).
    for (int s = 0; s < shards_; ++s) {
      view.push_back(ctrs_[static_cast<size_t>(s)]->read(ctx));
    }
    for (int s = 0; s < shards_; ++s) {
      view.push_back(regs_[static_cast<size_t>(s)]->read_max(ctx));
    }
    return view;
  }
  // The FAA(0) tail read IS the snapshot: everything below is the store's
  // own deterministic replay of entries fixed at their ticket fetch&add.
  detail::SnapReplay r(shards_);
  r.fold(journal_.version(), [&](int64_t t) { return journal_.entry(t); });
  view = r.ctr_net;
  view.insert(view.end(), r.max_seen.begin(), r.max_seen.end());
  return view;
}

int64_t SimKeyedSnapshot::read_shard(sim::Ctx& ctx, int s) {
  C2SL_CHECK(s >= 0 && s < shards_, "shard index out of range");
  return ctrs_[static_cast<size_t>(s)]->read(ctx);
}

Val SimKeyedSnapshot::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "Inc") {
    this->inc(ctx, static_cast<int>(as_num(inv.args)));
    return unit();
  }
  if (inv.name == "WriteMax") {
    int64_t p = as_num(inv.args);
    write_max(ctx, static_cast<int>(p & 7), p >> 3);
    return unit();
  }
  if (inv.name == "Xfer") {
    int64_t p = as_num(inv.args);
    transfer(ctx, static_cast<int>(p & 7), static_cast<int>((p >> 3) & 7), p >> 6);
    return unit();
  }
  if (inv.name == "Snap") return vec(snap(ctx));
  if (inv.name == "ReadShard") {
    return num(read_shard(ctx, static_cast<int>(as_num(inv.args))));
  }
  C2SL_CHECK(false, "unknown operation on keyed snapshot: " + inv.name);
  return unit();
}

// --- SimLaneRegistry --------------------------------------------------------

SimLaneRegistry::SimLaneRegistry(sim::World& world, std::string name, int max_lanes)
    : name_(std::move(name)), max_lanes_(max_lanes) {
  C2SL_CHECK(max_lanes >= 1, "need at least one lane");
  free_max_ = std::make_unique<FaaMax>(world, name_ + ".fmax");
  free_ = std::make_unique<core::SLSet>(world, name_ + ".free", *free_max_);
  // Fill the set with every lane during initialisation (before the execution
  // starts), through a free-running solo context that records no history.
  sim::Ctx init;
  init.world = &world;
  for (int64_t l = 0; l < max_lanes; ++l) free_->put(init, l);
}

int64_t SimLaneRegistry::acquire(sim::Ctx& ctx) {
  Val r = sim::record_op(ctx, name_, "Acquire", unit(), [&]() -> Val {
    // One Take: a lane linearizes at its winning test&set, kNone at the
    // Take's stabilised EMPTY point, where every lane is held.
    Val lane = free_->take(ctx);
    if (!std::holds_alternative<std::string>(lane)) return lane;
    return num(kNone);
  });
  return as_num(r);
}

void SimLaneRegistry::release(sim::Ctx& ctx, int64_t lane) {
  C2SL_CHECK(lane >= 0 && lane < max_lanes_, "lane out of range");
  sim::record_op(ctx, name_, "Release", num(lane), [&] {
    free_->put(ctx, lane);
    return unit();
  });
}

// --- SimHandoffQueue (the blocking-acquisition handoff queue) ---------------

namespace {
/// Cell markers. A cell holds ⊥ (never touched), num(wid) (announced waiter),
/// "TAKEN" (collected by a handoff) or "REVOKED" (overshot slot).
const char* kHandoffTaken = "TAKEN";
const char* kHandoffRevoked = "REVOKED";
}  // namespace

SimHandoffQueue::SimHandoffQueue(sim::World& world, std::string name,
                                 bool scan_delivery)
    : name_(std::move(name)), scan_delivery_(scan_delivery) {
  tail_ = world.add<prim::FetchAddInt>(name_ + ".tail");
  head_ = world.add<prim::FetchAddInt>(name_ + ".head");
  cells_ = world.add<prim::SwapRegArray>(name_ + ".cells");
}

Val SimHandoffQueue::enq(sim::Ctx& ctx, int64_t wid) {
  C2SL_CHECK(wid > 0, "waiter ids must be positive (0 and markers collide)");
  // The Tail fetch&add IS the enqueue: ticket t commits this waiter to FIFO
  // position t at a fixed own-step. The announcement swap that follows only
  // publishes the id for the handoff to collect — a handoff that arrives
  // first simply waits at the rendezvous (mirroring the native queue, where
  // the roles are swapped and the WAITER waits for the deposit).
  int64_t t = ctx.world->get(tail_).fetch_add(ctx, 1);
  ctx.world->get(cells_).swap(ctx, static_cast<size_t>(t), num(wid));
  return str("OK");
}

Val SimHandoffQueue::hand(sim::Ctx& ctx) {
  prim::SwapRegArray& cells = ctx.world->get(cells_);
  if (scan_delivery_) {
    // Publication-order delivery, Herlihy–Wing style: serve the first
    // ANNOUNCED waiter. With two tickets drawn but neither announced, which
    // waiter is served depends on future cell writes — no prefix-closed
    // linearization exists (the checker's pinned refutation).
    for (;;) {
      int64_t n = ctx.world->get(tail_).read(ctx);
      for (int64_t i = 0; i < n; ++i) {
        Val x = cells.swap(ctx, static_cast<size_t>(i), str(kHandoffTaken));
        if (std::holds_alternative<int64_t>(x)) return x;
      }
    }
  }
  // Ticket-order delivery (the verified design). Guard reads: head first,
  // then tail — when no waiter is visible the EMPTY response linearizes at
  // the tail read (every ticket below the earlier head observation was
  // already committed to some handoff's fetch&add).
  int64_t h0 = ctx.world->get(head_).read(ctx);
  int64_t e0 = ctx.world->get(tail_).read(ctx);
  if (h0 >= e0) return str("EMPTY");
  // The Head fetch&add commits this handoff to slot h — the linearization
  // point, fixed regardless of the future.
  int64_t h = ctx.world->get(head_).fetch_add(ctx, 1);
  if (h >= ctx.world->get(tail_).read(ctx)) {
    // Overshoot (only reachable with concurrent handoffs racing one guard):
    // kill the slot so its eventual waiter retries, report no delivery.
    cells.swap(ctx, static_cast<size_t>(h), str(kHandoffRevoked));
    return str("EMPTY");
  }
  // Collect the committed waiter's id: the swap takes an announced id
  // directly; an empty cell means waiter h sits between its ticket and its
  // announcement — its swap will return our TAKEN marker and leave the id.
  Val v = cells.swap(ctx, static_cast<size_t>(h), str(kHandoffTaken));
  while (!std::holds_alternative<int64_t>(v)) {
    v = cells.read(ctx, static_cast<size_t>(h));
  }
  return v;
}

Val SimHandoffQueue::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "Enq") return enq(ctx, as_num(inv.args));
  if (inv.name == "Deq") return hand(ctx);
  C2SL_CHECK(false, "unknown operation on handoff queue: " + inv.name);
  return unit();
}

// --- SimSegmentedTasArray (segment publication protocol) --------------------

SimSegmentedTasArray::SimSegmentedTasArray(sim::World& world, std::string name,
                                           bool publish_before_init)
    : name_(std::move(name)), publish_before_init_(publish_before_init) {
  claims_ = world.add<prim::TasArray>(name_ + ".claims", /*readable=*/false);
  spine_ = world.add<prim::RegArray>(name_ + ".spine");
  cells_ = world.add<prim::SwapRegArray>(name_ + ".cells");
}

std::string SimSegmentedTasArray::cell_object(size_t idx) const {
  return name_ + "[" + std::to_string(idx) + "]";
}

int SimSegmentedTasArray::segment_of(size_t idx) {
  int s = 0;
  while (idx + 1 >= (size_t{2} << s)) ++s;  // base-1 doubling: [2^s-1, 2^(s+1)-1)
  return s;
}

size_t SimSegmentedTasArray::segment_start(int s) { return (size_t{1} << s) - 1; }

size_t SimSegmentedTasArray::segment_size(int s) { return size_t{1} << s; }

/// ⊥ models uninitialised memory. The adversarial reading is "garbage that
/// happens to look set": in the publication-order protocol no step ever
/// observes it (every cells_ access is gated behind an observed publish, which
/// the winner issues only AFTER initialising every cell), so the mapping is
/// dead code there — while in the broken variant it surfaces as a spec
/// violation the checker catches.
int64_t SimSegmentedTasArray::cell_value(const Val& raw) const {
  if (is_unit(raw)) return 1;  // garbage
  return as_num(raw);
}

void SimSegmentedTasArray::ensure_segment(sim::Ctx& ctx, int s) {
  if (!is_unit(ctx.world->get(spine_).read(ctx, static_cast<size_t>(s)))) {
    return;  // already published
  }
  prim::TasArray& claims = ctx.world->get(claims_);
  if (claims.test_and_set(ctx, static_cast<size_t>(s)) == 0) {
    // Claim won: initialise every cell, then publish — the same two-phase
    // order as rt::PublishOnce::get. The broken variant swaps the
    // phases; tests/service_sim_test.cpp pins its refutation.
    prim::SwapRegArray& cells = ctx.world->get(cells_);
    prim::RegArray& spine = ctx.world->get(spine_);
    if (publish_before_init_) {
      spine.write(ctx, static_cast<size_t>(s), num(1));
    }
    const size_t start = segment_start(s);
    for (size_t c = 0; c < segment_size(s); ++c) {
      cells.write(ctx, start + c, num(0));
    }
    if (!publish_before_init_) {
      spine.write(ctx, static_cast<size_t>(s), num(1));
    }
    return;
  }
  // Claim lost: the winner's publish is at most a few steps away; spin on the
  // spine register, mirroring the native losers' spin on the segment pointer.
  // (Under the bounded explorer, schedules that starve the winner truncate at
  // the depth budget — the spin itself is safe, each probe is one step.)
  while (is_unit(ctx.world->get(spine_).read(ctx, static_cast<size_t>(s)))) {
  }
}

int64_t SimSegmentedTasArray::test_and_set(sim::Ctx& ctx, size_t idx) {
  Val r = sim::record_op(ctx, cell_object(idx), "TAS", unit(), [&] {
    ensure_segment(ctx, segment_of(idx));
    return num(cell_value(ctx.world->get(cells_).swap(ctx, idx, num(1))));
  });
  return as_num(r);
}

int64_t SimSegmentedTasArray::read(sim::Ctx& ctx, size_t idx) {
  Val r = sim::record_op(ctx, cell_object(idx), "Read", unit(), [&]() -> Val {
    // Publication gate first: an unpublished segment's cells are all logically
    // 0, and the spine read IS the atomic step that justifies returning 0
    // (no cell of an unpublished segment has ever been swapped).
    if (is_unit(ctx.world->get(spine_).read(
            ctx, static_cast<size_t>(segment_of(idx))))) {
      return num(0);
    }
    return num(cell_value(ctx.world->get(cells_).read(ctx, idx)));
  });
  return as_num(r);
}

// --- SimRoutingEpoch (the epoch hand-off) ----------------------------------

SimRoutingEpoch::SimRoutingEpoch(sim::World& world, std::string name, int n,
                                 int initial_shards, int max_shards,
                                 bool publish_before_replay)
    : name_(std::move(name)),
      initial_shards_(initial_shards),
      max_shards_(max_shards),
      publish_before_replay_(publish_before_replay) {
  check_pow2(initial_shards);
  check_pow2(max_shards);
  C2SL_CHECK(max_shards >= initial_shards, "max shard count below initial");
  claims_ = world.add<prim::TasArray>(name_ + ".claims", /*readable=*/false);
  counts_ = world.add<prim::RegArray>(name_ + ".counts");
  stamp_ = world.add<prim::RegArray>(name_ + ".stamp");
  for (int s = 0; s < max_shards; ++s) {
    regs_.push_back(std::make_unique<core::MaxRegisterFAA>(
        world, name_ + ".slot" + std::to_string(s), n));
  }
}

std::string SimRoutingEpoch::key_object(uint64_t key) const {
  return name_ + ".k" + std::to_string(key);
}

int64_t SimRoutingEpoch::stamp_read(sim::Ctx& ctx) {
  // ⊥ (never written) is stamp 0: epoch 0 published, nothing installing —
  // the native atomic's zero-initialisation.
  Val v = ctx.world->get(stamp_).read(ctx, 0);
  return std::holds_alternative<int64_t>(v) ? as_num(v) : 0;
}

int SimRoutingEpoch::shards_of(sim::Ctx& ctx, int64_t epoch) {
  // Epoch 0's count is a construction-time constant (the native constructor's
  // happens-before edge); later epochs read the installed count — only ever
  // called for epochs exposed by a stamp read, so the cell is never ⊥.
  if (epoch == 0) return initial_shards_;
  Val v = ctx.world->get(counts_).read(ctx, static_cast<size_t>(epoch));
  C2SL_CHECK(std::holds_alternative<int64_t>(v),
             "epoch count read before its install");
  return static_cast<int>(as_num(v));
}

int SimRoutingEpoch::slot_of(sim::Ctx& ctx, uint64_t key, int64_t epoch) {
  return static_cast<int>(key & (static_cast<uint64_t>(shards_of(ctx, epoch)) - 1));
}

void SimRoutingEpoch::write_max(sim::Ctx& ctx, uint64_t key, int64_t v) {
  sim::record_op(ctx, key_object(key), "WriteMax", num(v), [&] {
    // Bind under the published epoch of one stamp read (ShardRef's bind),
    // primary slot write, then the store's own settle loop.
    auto stamp = [&] { return stamp_read(ctx); };
    auto route = [&](int64_t epoch) { return slot_of(ctx, key, epoch); };
    auto apply = [&](int s) { regs_[static_cast<size_t>(s)]->write_max(ctx, v); };
    int64_t epoch = Epoch::published_epoch(stamp());
    int slot = route(epoch);
    apply(slot);
    Epoch::settle(epoch, slot, stamp, route, apply);
    return unit();
  });
}

int64_t SimRoutingEpoch::read_max(sim::Ctx& ctx, uint64_t key) {
  Val r = sim::record_op(ctx, key_object(key), "ReadMax", unit(), [&] {
    int slot = slot_of(ctx, key, Epoch::published_epoch(stamp_read(ctx)));
    return num(regs_[static_cast<size_t>(slot)]->read_max(ctx));
  });
  return as_num(r);
}

void SimRoutingEpoch::resize(sim::Ctx& ctx, int new_shards) {
  C2SL_CHECK(new_shards <= max_shards_, "resize beyond max_shards");
  check_pow2(new_shards);
  sim::record_op(ctx, name_ + ".resize", "Resize", num(new_shards), [&]() -> Val {
    int64_t st = stamp_read(ctx);
    if (Epoch::installing(st)) return str("INFLIGHT");
    int64_t e = Epoch::published_epoch(st);
    int old_count = shards_of(ctx, e);
    if (new_shards <= old_count) return str("NOOP");
    int64_t next = e + 1;
    if (ctx.world->get(claims_).test_and_set(ctx, static_cast<size_t>(next)) != 0) {
      return str("LOST");
    }
    // Install: count first, then the install stamp (opens the writers'
    // dual-write window), replay, then the publish stamp. The broken variant
    // publishes BEFORE the replay — serve-before-replay — and the checker
    // refutes it: a fresh reader routes to a new slot and misses a completed
    // write.
    prim::RegArray& stamp = ctx.world->get(stamp_);
    ctx.world->get(counts_).write(ctx, static_cast<size_t>(next), num(new_shards));
    stamp.write(ctx, 0, num(Epoch::install_stamp(next)));
    if (publish_before_replay_) stamp.write(ctx, 0, num(Epoch::publish_stamp(next)));
    for (int j = old_count; j < new_shards; ++j) {
      int64_t mv = regs_[static_cast<size_t>(j & (old_count - 1))]->read_max(ctx);
      if (mv > 0) regs_[static_cast<size_t>(j)]->write_max(ctx, mv);
    }
    if (!publish_before_replay_) stamp.write(ctx, 0, num(Epoch::publish_stamp(next)));
    return str("OK");
  });
}

}  // namespace c2sl::svc
