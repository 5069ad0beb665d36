// Operation mixes for the workload engine.
//
// An OpMix is a named discrete distribution over the C2Store operation kinds.
// The canonical mixes mirror the usual service workload archetypes:
// read-heavy (cache-like), write-heavy (ingest-like), mixed, and sum-heavy
// (counter ingest + frequent counter_sum digest reads).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace c2sl::wl {

enum class OpKind : int {
  kMaxWrite = 0,
  kMaxRead,
  kCounterInc,
  kCounterRead,
  kSetPut,
  kSetTake,
  kTas,
  kTasRead,
  kGlobalMax,
  kCounterSum,
  /// One full session churn cycle: open a session (blocking on the handoff
  /// queue) against a store with fewer lanes than worker threads, run one op
  /// through it, close it. The recorded latency is the OPEN latency alone.
  kSessionChurn,
  /// Multi-key snapshot over one representative counter key per shard
  /// (keys collapse to shards, so per-shard representatives cover the whole
  /// aggregate state), read through one journal-replay SnapshotRef.
  kSnapshot,
  /// session.transfer between two distinct per-shard representative keys:
  /// one journal entry moves the amount, so every concurrent snapshot must
  /// see the balances sum to zero (the transfer_audit conservation check).
  kTransfer,
};
inline constexpr int kOpKindCount = 13;

const char* to_string(OpKind k);

struct OpMix {
  OpMix() = default;
  /// Weights need not sum to 1 (pick normalises); the total is cached here so
  /// the per-operation hot path never re-sums the vector.
  OpMix(std::string mix_name, std::vector<std::pair<OpKind, double>> mix_weights);

  std::string name;
  std::vector<std::pair<OpKind, double>> weights;

  OpKind pick(Rng& rng) const;
  double total_weight() const { return total_; }

  static OpMix read_heavy();
  static OpMix write_heavy();
  static OpMix mixed();
  static OpMix sum_heavy();
  static OpMix session_churn();
  static OpMix snapshot_heavy();
  static OpMix transfer_audit();
  static OpMix resize_storm();
  /// "read_heavy" | "write_heavy" | "mixed" | "sum_heavy" | "session_churn"
  /// | "snapshot_heavy" | "transfer_audit" | "resize_storm".
  static OpMix by_name(const std::string& name);

 private:
  double total_ = 0.0;
};

}  // namespace c2sl::wl
