#include "service/sim_bridge.h"

#include <algorithm>

#include "service/c2store.h"
#include "util/assert.h"

namespace c2sl::svc {

namespace {
using Journal = rt::JournalCodec;
using Epoch = rt::EpochCodec;

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

SimKeyedStore::SimKeyedStore(std::string name, int n, int shards)
    : name_(std::move(name)), shards_(shards), ctrs_(static_cast<size_t>(shards)) {
  check_pow2(shards);
  for (int s = 0; s < shards; ++s) regs_.emplace_back(n);
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
    regs_[static_cast<size_t>(s)].write_max(ctx.self, v);
    return unit();
  });
}

int64_t SimKeyedStore::max_read(sim::Ctx& ctx, uint64_t key) {
  int s = shard_of(key);
  Val r = sim::record_op(ctx, max_object(s), "ReadMax", unit(), [&] {
    return num(regs_[static_cast<size_t>(s)].read_max());
  });
  return as_num(r);
}

int64_t SimKeyedStore::counter_inc(sim::Ctx& ctx, uint64_t key) {
  int s = shard_of(key);
  Val r = sim::record_op(ctx, ctr_object(s), "FAI", unit(), [&] {
    return num(ctrs_[static_cast<size_t>(s)].fetch_and_increment());
  });
  return as_num(r);
}

int64_t SimKeyedStore::counter_read(sim::Ctx& ctx, uint64_t key) {
  int s = shard_of(key);
  Val r = sim::record_op(ctx, ctr_object(s), "Read", unit(), [&] {
    return num(ctrs_[static_cast<size_t>(s)].read());
  });
  return as_num(r);
}

// --- SimShardedMaxRegister / SimShardedCounter (the aggregate twins) -------

SimShardedMaxRegister::SimShardedMaxRegister(std::string name, int n, int shards,
                                             AggRead read)
    : name_(std::move(name)), shards_(shards), read_(read), digest_(n) {
  check_pow2(shards);
  for (int s = 0; s < shards; ++s) regs_.emplace_back(n);
}

void SimShardedMaxRegister::write_max(sim::Ctx& ctx, int64_t v) {
  // Shard register FIRST, digest second — MaxRef::write's order (pinned by
  // tests/service_sim_test.cpp).
  int s = static_cast<int>(static_cast<uint64_t>(v) & static_cast<uint64_t>(shards_ - 1));
  regs_[static_cast<size_t>(s)].write_max(ctx.self, v);
  if (read_ == AggRead::kDigest) digest_.write_max(ctx.self, v);
}

int64_t SimShardedMaxRegister::read_max() {
  if (read_ == AggRead::kDigest) return digest_.read_max();
  std::vector<int64_t> view = scan(shards_, read_, [&](int s) { return read_shard(s); });
  return *std::max_element(view.begin(), view.end());
}

int64_t SimShardedMaxRegister::read_shard(int s) {
  C2SL_CHECK(s >= 0 && s < shards_, "shard index out of range");
  return regs_[static_cast<size_t>(s)].read_max();
}

Val SimShardedMaxRegister::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "WriteMax") {
    write_max(ctx, as_num(inv.args));
    return unit();
  }
  if (inv.name == "ReadMax") return num(read_max());
  if (inv.name == "ReadShard") return num(read_shard(static_cast<int>(as_num(inv.args))));
  C2SL_CHECK(false, "unknown operation on sharded max register: " + inv.name);
  return unit();
}

SimShardedCounter::SimShardedCounter(std::string name, int shards, AggRead read)
    : name_(std::move(name)), shards_(shards), read_(read),
      ctrs_(static_cast<size_t>(shards)) {
  check_pow2(shards);
}

void SimShardedCounter::inc(sim::Ctx& ctx) {
  // Shard counter FIRST, digest second — CounterRef::inc's order (pinned by
  // tests/service_sim_test.cpp).
  int s = static_cast<int>(static_cast<uint64_t>(ctx.self) &
                           static_cast<uint64_t>(shards_ - 1));
  ctrs_[static_cast<size_t>(s)].fetch_and_increment();
  if (read_ == AggRead::kDigest) digest_.add(ctx.self);
}

int64_t SimShardedCounter::read() {
  if (read_ == AggRead::kDigest) return digest_.read();
  int64_t sum = 0;
  for (int64_t v : scan(shards_, read_, [&](int s) { return read_shard(s); })) sum += v;
  return sum;
}

int64_t SimShardedCounter::read_shard(int s) {
  C2SL_CHECK(s >= 0 && s < shards_, "shard index out of range");
  return ctrs_[static_cast<size_t>(s)].read();
}

Val SimShardedCounter::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "Inc") {
    this->inc(ctx);
    return unit();
  }
  if (inv.name == "Read") return num(read());
  if (inv.name == "ReadShard") return num(read_shard(static_cast<int>(as_num(inv.args))));
  C2SL_CHECK(false, "unknown operation on sharded counter: " + inv.name);
  return unit();
}

// --- SimKeyedSnapshot (the snapshot write journal) --------------------------

SimKeyedSnapshot::SimKeyedSnapshot(std::string name, int n, int shards, bool naive_loop)
    : name_(std::move(name)), shards_(shards), naive_loop_(naive_loop),
      ctrs_(static_cast<size_t>(shards)) {
  C2SL_CHECK(shards >= 1 && shards <= 8, "spec packing supports up to 8 shards");
  for (int s = 0; s < shards; ++s) regs_.emplace_back(n);
}

void SimKeyedSnapshot::inc(int s) {
  // Shard object FIRST, journal LAST — the pinned cross-facet order shared
  // with the max/sum digests: the journal never runs ahead of the keyed reads.
  ctrs_[static_cast<size_t>(s)].fetch_and_increment();
  journal_.append(Journal::Kind::kCounterInc, s, 0, 1);
}

void SimKeyedSnapshot::write_max(sim::Ctx& ctx, int s, int64_t v) {
  regs_[static_cast<size_t>(s)].write_max(ctx.self, v);
  journal_.append(Journal::Kind::kMaxWrite, s, 0, v);
}

void SimKeyedSnapshot::transfer(int from, int to, int64_t d) {
  // Journal-only: the ONE entry is what makes the debit and credit
  // inseparable at every snapshot cut (the conservation contract).
  journal_.append(Journal::Kind::kTransfer, from, to, d);
}

std::vector<int64_t> SimKeyedSnapshot::snap() {
  std::vector<int64_t> view;
  if (naive_loop_) {
    // Negative control: one pass of direct per-shard reads. Each read is
    // individually fine; the VECTOR is torn by any write landing between two
    // of them — the checker refutes this (not even linearizable).
    for (int s = 0; s < shards_; ++s) view.push_back(read_shard(s));
    for (int s = 0; s < shards_; ++s) view.push_back(regs_[static_cast<size_t>(s)].read_max());
    return view;
  }
  // The tail load IS the snapshot: everything below is the store's
  // own deterministic replay of entries fixed at their ticket fetch&add.
  detail::SnapReplay r(shards_);
  r.fold(journal_.version(), [&](int64_t t) { return journal_.entry(t); });
  view = r.ctr_net;
  view.insert(view.end(), r.max_seen.begin(), r.max_seen.end());
  return view;
}

int64_t SimKeyedSnapshot::read_shard(int s) {
  C2SL_CHECK(s >= 0 && s < shards_, "shard index out of range");
  return ctrs_[static_cast<size_t>(s)].read();
}

Val SimKeyedSnapshot::apply(sim::Ctx& ctx, const verify::Invocation& inv) {
  if (inv.name == "Inc") {
    this->inc(static_cast<int>(as_num(inv.args)));
    return unit();
  }
  if (inv.name == "WriteMax") {
    int64_t p = as_num(inv.args);
    write_max(ctx, static_cast<int>(p & 7), p >> 3);
    return unit();
  }
  if (inv.name == "Xfer") {
    int64_t p = as_num(inv.args);
    transfer(static_cast<int>(p & 7), static_cast<int>((p >> 3) & 7), p >> 6);
    return unit();
  }
  if (inv.name == "Snap") return vec(snap());
  if (inv.name == "ReadShard") return num(read_shard(static_cast<int>(as_num(inv.args))));
  C2SL_CHECK(false, "unknown operation on keyed snapshot: " + inv.name);
  return unit();
}

// --- SimRoutingEpoch (the epoch hand-off) ----------------------------------

SimRoutingEpoch::SimRoutingEpoch(std::string name, int n, int initial_shards,
                                 int max_shards, Variant variant)
    : name_(std::move(name)),
      max_shards_(max_shards),
      variant_(variant),
      epochs_(initial_shards) {
  check_pow2(max_shards);
  C2SL_CHECK(max_shards >= initial_shards, "max shard count below initial");
  for (int s = 0; s < max_shards; ++s) regs_.emplace_back(n);
}

std::string SimRoutingEpoch::key_object(uint64_t key) const {
  return name_ + ".k" + std::to_string(key);
}

int SimRoutingEpoch::slot_of(uint64_t key, int64_t epoch) const {
  return static_cast<int>(key & (static_cast<uint64_t>(epochs_.shards_of(epoch)) - 1));
}

void SimRoutingEpoch::write_max(sim::Ctx& ctx, uint64_t key, int64_t v) {
  sim::record_op(ctx, key_object(key), "WriteMax", num(v), [&] {
    // Bind under the published epoch of one stamp read (ShardRef's bind),
    // primary slot write, then the store's own settle loop.
    auto stamp = [&] { return epochs_.stamp(); };
    auto route = [&](int64_t epoch) { return slot_of(key, epoch); };
    auto apply = [&](int s) { regs_[static_cast<size_t>(s)].write_max(ctx.self, v); };
    int64_t epoch = Epoch::published_epoch(stamp());
    int slot = route(epoch);
    apply(slot);
    if (variant_ != Variant::kWriterSkipsSettle) {
      Epoch::settle(epoch, slot, stamp, route, apply);
    }
    return unit();
  });
}

int64_t SimRoutingEpoch::read_max(sim::Ctx& ctx, uint64_t key) {
  Val r = sim::record_op(ctx, key_object(key), "ReadMax", unit(), [&] {
    int slot = slot_of(key, Epoch::published_epoch(epochs_.stamp()));
    return num(regs_[static_cast<size_t>(slot)].read_max());
  });
  return as_num(r);
}

void SimRoutingEpoch::resize(sim::Ctx& ctx, int new_shards) {
  C2SL_CHECK(new_shards <= max_shards_, "resize beyond max_shards");
  sim::record_op(ctx, name_ + ".resize", "Resize", num(new_shards), [&]() -> Val {
    Epoch::Claim claim;
    switch (epochs_.try_begin(new_shards, claim)) {
      case Epoch::ResizeStatus::kInstalled: break;
      case Epoch::ResizeStatus::kNoop: return str("NOOP");
      case Epoch::ResizeStatus::kInFlight: return str("INFLIGHT");
      case Epoch::ResizeStatus::kPoisoned: return str("POISONED");
    }
    // C2Store::migrate's replay, then the publish. The serve-before-replay
    // variant publishes first: a fresh reader routes to a new slot and
    // misses a completed write.
    const bool early = variant_ == Variant::kPublishBeforeReplay;
    if (early) epochs_.publish(claim);
    int old_count = epochs_.shards_of(claim.epoch - 1);
    for (int j = old_count; j < claim.shards; ++j) {
      int64_t mv = regs_[static_cast<size_t>(j & (old_count - 1))].read_max();
      if (mv > 0) regs_[static_cast<size_t>(j)].write_max(ctx.self, mv);
    }
    if (!early) epochs_.publish(claim);
    return str("OK");
  });
}

}  // namespace c2sl::svc
