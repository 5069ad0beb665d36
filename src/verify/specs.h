// Sequential specifications for every object the paper discusses.
//
// Operation-name conventions used across the library (implementations must
// record exactly these names for the checkers to apply):
//   max register:  WriteMax(v) -> ()            ReadMax() -> v
//   snapshot:      Update(v) -> ()              Scan() -> [v_0..v_{n-1}]
//   counter:       Inc() -> ()   Add(k) -> ()   Read() -> v
//   union set:     Insert(x) -> ()              Has(x) -> 0/1
//   test&set:      TAS() -> 0/1                 Read() -> 0/1    Reset() -> ()
//   fetch&inc:     FAI() -> v                   Read() -> v
//   set (§4.3):    Put(x) -> "OK"               Take() -> x | "EMPTY"
//   queue:         Enq(x) -> "OK"               Deq() -> x | "EMPTY"
//   stack:         Push(x) -> "OK"              Pop() -> x | "EMPTY"
#pragma once

#include <memory>

#include "verify/spec.h"

namespace c2sl::verify {

class MaxRegisterSpec : public Spec {
 public:
  std::string name() const override { return "max_register"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

/// n-component single-writer snapshot; component i belongs to process i.
class SnapshotSpec : public Spec {
 public:
  explicit SnapshotSpec(int n) : n_(n) {}
  std::string name() const override { return "snapshot"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;

 private:
  int n_;
};

/// Multi-key snapshot over `shards` counter slots and `shards` max slots —
/// the sequential spec behind C2Session::snapshot (sim twin:
/// svc::SimKeyedSnapshot). State: the 2*shards vector
/// [ctr_0..ctr_{s-1}, max_0..max_{s-1}]. Args are packed ints (3 bits per
/// shard index, so shards <= 8):
///   Inc(s) -> ()                    ctr_s += 1
///   WriteMax(s | v<<3) -> ()        max_s = max(max_s, v)
///   Xfer(from | to<<3 | d<<6) -> () ctr_from -= d; ctr_to += d  (atomic!)
///   Snap() -> [ctr.., max..]        the whole vector, one instant
/// Xfer moving both cells in ONE transition is the conservation contract a
/// torn implementation cannot meet — the checker refutes any snapshot that
/// can observe the debit without the credit.
class KeyedSnapshotSpec : public Spec {
 public:
  explicit KeyedSnapshotSpec(int shards) : shards_(shards) {}
  std::string name() const override { return "keyed_snapshot"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;

 private:
  int shards_;
};

class CounterSpec : public Spec {
 public:
  std::string name() const override { return "counter"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

/// Logical clock in the Aspnes–Herlihy simple-type sense: Join(v) advances the
/// clock to max(clock, v); Observe() reads it. (A Lamport tick is the
/// non-atomic composition Join(Observe() + 1).)
class LogicalClockSpec : public Spec {
 public:
  std::string name() const override { return "logical_clock"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

class UnionSetSpec : public Spec {
 public:
  std::string name() const override { return "union_set"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

/// Readable (optionally multi-shot) test&set: TAS, Read, and — when
/// `multi_shot` — Reset.
class TasSpec : public Spec {
 public:
  explicit TasSpec(bool multi_shot = false) : multi_shot_(multi_shot) {}
  std::string name() const override { return multi_shot_ ? "multishot_tas" : "tas"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;

 private:
  bool multi_shot_;
};

class FaiSpec : public Spec {
 public:
  std::string name() const override { return "fetch_inc"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

/// Unordered set of §4.3: Take removes and returns an arbitrary element
/// (nondeterministic), or returns "EMPTY".
class SetSpec : public Spec {
 public:
  std::string name() const override { return "set"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

/// Bounded lane registry (service/lane_registry.h): Acquire() hands out a
/// lane in [0, max_lanes) that no one currently holds — any free lane, so the
/// fresh-ticket/recycled distinction stays an implementation detail — or -1,
/// allowed ONLY when every lane is held; Release(l) requires l held. State:
/// the sorted list of held lanes.
class LaneRegistrySpec : public Spec {
 public:
  explicit LaneRegistrySpec(int max_lanes) : max_lanes_(max_lanes) {}
  std::string name() const override { return "lane_registry"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;

 private:
  int max_lanes_;
};

/// FIFO queue; `k_out_of_order > 1` relaxes Deq to return one of the k oldest
/// items (§5, k-out-of-order queues; k == 1 is the exact queue).
class QueueSpec : public Spec {
 public:
  explicit QueueSpec(int k_out_of_order = 1) : k_(k_out_of_order) {}
  std::string name() const override {
    return k_ == 1 ? "queue" : std::to_string(k_) + "-ooo-queue";
  }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;

 private:
  int k_;
};

/// The handoff queue (runtime/handoff_queue.h), waiters served in ticket
/// order. State: the waiters (waiting, delivered v, revoked or cancelled)
/// and the head ticket. "Enq"(w) -> "OK" (distinct ids; revoked if below
/// head). "Hand"(v) -> "OK" delivers v to the waiter at head, skipping
/// cancelled ones, else "EMPTY" with head kept or advanced by one (an
/// overshoot, revoking the next ticket). "Await"(w) -> v | "REVOKED" once
/// decided. "Cancel"(w) -> "CANCELLED" | v | "REVOKED", or "NONE" before
/// w's Enq. Where the queue keeps this order: docs/PROOFS.md.
class HandoffSpec : public Spec {
 public:
  std::string name() const override { return "handoff_queue"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

class StackSpec : public Spec {
 public:
  std::string name() const override { return "stack"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;
};

/// m-stuttering queue (§5): an operation may have no effect up to m consecutive
/// times per operation type; a stuttering Deq returns the oldest item without
/// removing it, a stuttering Enq returns OK without enqueueing.
class StutteringQueueSpec : public Spec {
 public:
  explicit StutteringQueueSpec(int m) : m_(m) {}
  std::string name() const override { return std::to_string(m_) + "-stuttering-queue"; }
  std::string initial() const override;
  std::vector<Transition> next(const std::string& state,
                               const Invocation& inv) const override;

 private:
  int m_;
};

}  // namespace c2sl::verify
