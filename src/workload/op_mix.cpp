#include "workload/op_mix.h"

#include "util/assert.h"

namespace c2sl::wl {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kMaxWrite:
      return "MaxWrite";
    case OpKind::kMaxRead:
      return "MaxRead";
    case OpKind::kCounterInc:
      return "CounterInc";
    case OpKind::kCounterRead:
      return "CounterRead";
    case OpKind::kSetPut:
      return "SetPut";
    case OpKind::kSetTake:
      return "SetTake";
    case OpKind::kTas:
      return "Tas";
    case OpKind::kTasRead:
      return "TasRead";
    case OpKind::kGlobalMax:
      return "GlobalMax";
    case OpKind::kCounterSum:
      return "CounterSum";
    case OpKind::kSessionChurn:
      return "SessionChurn";
    case OpKind::kSnapshot:
      return "Snapshot";
    case OpKind::kTransfer:
      return "Transfer";
  }
  return "?";
}

OpMix::OpMix(std::string mix_name, std::vector<std::pair<OpKind, double>> mix_weights)
    : name(std::move(mix_name)), weights(std::move(mix_weights)) {
  for (const auto& [kind, w] : weights) {
    (void)kind;
    total_ += w;
  }
}

OpKind OpMix::pick(Rng& rng) const {
  C2SL_CHECK(!weights.empty(), "op mix has no operations");
  double u = rng.next_unit() * total_;
  double acc = 0.0;
  for (const auto& [kind, w] : weights) {
    acc += w;
    if (u < acc) return kind;
  }
  return weights.back().first;  // floating-point edge: u == total
}

OpMix OpMix::read_heavy() {
  return {"read_heavy",
          {{OpKind::kMaxRead, 0.45},
           {OpKind::kCounterRead, 0.25},
           {OpKind::kTasRead, 0.20},
           {OpKind::kMaxWrite, 0.04},
           {OpKind::kCounterInc, 0.03},
           {OpKind::kSetPut, 0.015},
           {OpKind::kSetTake, 0.015}}};
}

OpMix OpMix::write_heavy() {
  return {"write_heavy",
          {{OpKind::kMaxWrite, 0.30},
           {OpKind::kCounterInc, 0.30},
           {OpKind::kSetPut, 0.15},
           {OpKind::kSetTake, 0.10},
           {OpKind::kTas, 0.05},
           {OpKind::kMaxRead, 0.05},
           {OpKind::kCounterRead, 0.05}}};
}

OpMix OpMix::mixed() {
  return {"mixed",
          {{OpKind::kMaxWrite, 0.125},
           {OpKind::kMaxRead, 0.125},
           {OpKind::kCounterInc, 0.125},
           {OpKind::kCounterRead, 0.125},
           {OpKind::kSetPut, 0.125},
           {OpKind::kSetTake, 0.125},
           {OpKind::kTas, 0.125},
           {OpKind::kTasRead, 0.125}}};
}

OpMix OpMix::sum_heavy() {
  // Sustained counter ingest with frequent sum queries: every inc lands on
  // the digest word that every counter_sum reads.
  return {"sum_heavy",
          {{OpKind::kCounterInc, 0.55},
           {OpKind::kCounterSum, 0.35},
           {OpKind::kCounterRead, 0.10}}};
}

OpMix OpMix::session_churn() {
  // Dynamic join/leave under lane starvation: every op is a full
  // open -> use -> close cycle against a store with fewer lanes than worker
  // threads. The recorded latency is the open latency.
  return {"session_churn", {{OpKind::kSessionChurn, 1.0}}};
}

OpMix OpMix::snapshot_heavy() {
  // Counter ingest with frequent multi-key snapshots: every snapshot replays
  // the incs journaled since its session's cursor. No transfers (those are
  // the transfer_audit mix).
  return {"snapshot_heavy",
          {{OpKind::kCounterInc, 0.50},
           {OpKind::kSnapshot, 0.40},
           {OpKind::kCounterRead, 0.10}}};
}

OpMix OpMix::transfer_audit() {
  // The conservation suite as a workload: concurrent transfers between
  // per-shard representative keys, audited live — every snapshot asserts
  // the balances sum to zero (C2SL_CHECK in the engine, so the sanitizer CI
  // jobs fail loudly on a torn cut).
  return {"transfer_audit",
          {{OpKind::kTransfer, 0.70}, {OpKind::kSnapshot, 0.30}}};
}

OpMix OpMix::resize_storm() {
  // Keyed traffic designed to run UNDER live shard resizing (the engine's
  // resize_every knob doubles the shard count on a schedule; the mix itself
  // has no resize op — resizes are control-plane events, not data ops).
  // Write-leaning so migrations always race real updates, with enough reads
  // and aggregate queries to exercise ref revalidation and the digests
  // mid-migration. No transfers: counter conservation across the
  // resize cut then has the exact closed form sum == #incs, which the engine
  // asserts after quiescence.
  return {"resize_storm",
          {{OpKind::kMaxWrite, 0.40},
           {OpKind::kMaxRead, 0.25},
           {OpKind::kCounterInc, 0.15},
           {OpKind::kCounterRead, 0.10},
           {OpKind::kGlobalMax, 0.05},
           {OpKind::kCounterSum, 0.05}}};
}

OpMix OpMix::by_name(const std::string& name) {
  if (name == "read_heavy") return read_heavy();
  if (name == "write_heavy") return write_heavy();
  if (name == "mixed") return mixed();
  if (name == "sum_heavy") return sum_heavy();
  if (name == "session_churn") return session_churn();
  if (name == "snapshot_heavy") return snapshot_heavy();
  if (name == "transfer_audit") return transfer_audit();
  if (name == "resize_storm") return resize_storm();
  C2SL_CHECK(false, "unknown op mix: " + name);
  return mixed();
}

}  // namespace c2sl::wl
