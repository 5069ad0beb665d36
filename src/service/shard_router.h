// Key → shard routing for the C2Store service layer.
//
// Hashing is pure and stateless: a key (64-bit integer or string) is mixed
// through a SplitMix64-style finalizer and masked onto a power-of-two shard
// count. Because strong linearizability is local (composable), a keyspace
// striped across independent strongly-linearizable shard objects stays
// strongly linearizable end-to-end.
//
// slot_of is the one masking function: C2Store masks under the count of a
// routing epoch (C2Store::slot_under over runtime/routing_epoch.h) and under
// its initial count for the journal (C2Store::journal_slot), and the sim twin
// SimKeyedStore (service/sim_bridge.h) masks under its fixed count. How a
// key's state follows its slot across a mask change is the RoutingEpoch +
// migration protocol, checker-pinned via SimRoutingEpoch.
#pragma once

#include <cstdint>
#include <string_view>

namespace c2sl::svc {

/// SplitMix64 finalizer: cheap full-avalanche 64-bit mix.
inline uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

inline uint64_t hash_key(uint64_t key) { return mix64(key + 0x9e3779b97f4a7c15ULL); }

/// FNV-1a over the bytes, then finalized so that low bits are well mixed
/// before the power-of-two mask is applied.
inline uint64_t hash_key(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

/// The slot of `hash` among `shards` (a power of two): its low bits.
inline int slot_of(uint64_t hash, int shards) {
  return static_cast<int>(hash & (static_cast<uint64_t>(shards) - 1));
}

}  // namespace c2sl::svc
