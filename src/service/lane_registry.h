// LaneRegistry — consensus-number-2 lane lifecycle for the C2Store service.
//
// Every lane-indexed construction in this repo (NativeMaxRegister64's
// lanes, NativeMultishotTAS's reset writers) needs its caller to present a
// lane id below max_lanes, and before this registry existed that obligation
// leaked out of the store as a raw `int tid` parameter on half the public
// surface. The registry moves the whole lifecycle inside the service:
//
//   acquire():  NativeSet::take() — Algorithm 2 (Thm 10), whose successful
//               Take linearizes at its winning test&set exchange. The
//               constructor fills the set with every lane 0..max_lanes-1, so
//               there is no second source of lanes: a fresh lane and a
//               recycled one come out of the same take, and an empty take
//               means every lane is held ("no lane free", kNone).
//   release(l): hand the lane DIRECTLY to the oldest blocked acquirer via the
//               consensus-2 HandoffQueue (runtime/handoff_queue.h) — the
//               handoff commits at the queue's head fetch&add; only when no
//               waiter is visible does the lane fall back to NativeSet::put(l)
//               (linearizing at its Items write), followed by a Dekker-style
//               re-check that pulls the lane back out for a waiter that
//               enqueued concurrently (no lost wakeups).
//
//   acquire_blocking(): try_acquire, else enqueue a handoff ticket, re-poll
//               the free set once (closing the race against a release that
//               missed the enqueue), and park on the ticket's cell until a
//               released lane is handed over — FIFO-fair in enqueue order
//               (commitment order around timeouts: docs/PROOFS.md), no
//               busy-spinning (the park is a targeted futex-style wait;
//               wakeups per acquisition are bounded, asserted by the TSAN
//               stress in tests/c2store_stress_test.cpp). acquire_for() is
//               the deadline form; its timeout path cancels the ticket and
//               honours a delivery that races the cancellation.
//
// Exchange and fetch&add only; no CAS anywhere (grep-enforced along with the
// rest of src/service by tests/c2store_test.cpp). Every operation linearizes
// at a fixed step of its own — the winning exchange inside take(), the Items
// write inside put(), the enqueue/hand fetch&adds of the handoff queue, or
// (for a kNone acquire) the stabilised Max read of the failing take() — so
// the induced linearization is prefix-closed: the registry is strongly
// linearizable.
// tests/lane_registry_test.cpp verifies exactly this with the bounded model
// checker on the set itself (rt::BasicSet over sim::SimMem), and stress-tests
// the native implementation for uniqueness under contention;
// tests/handoff_queue_test.cpp runs the queue's own code under the checker
// (ticket-order FIFO verified without cancels, Herlihy–Wing refuted).
//
// Khanchandani–Wattenhofer's CAS-from-consensus-2 reduction is the conceptual
// licence: lane assignment is itself a consensus-2 problem, so it belongs
// inside the store rather than on every call site.
//
// Lifetime: UNBOUNDED. The lane set rides on the segmented NativeSet
// (runtime/segmented_array.h), so a registry survives arbitrarily many
// release() calls — there is no recycle capacity and no config knob for one.
// NativeSet's verified-taken-prefix hint keeps each acquire/release cycle
// O(1) amortized even after millions of recycles (pinned by the lifetime test
// in tests/segmented_array_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "runtime/handoff_queue.h"
#include "runtime/native_tas_family.h"

namespace c2sl::svc {

class LaneRegistry {
 public:
  /// acquire() result when every lane is concurrently held.
  static constexpr int kNone = -1;

  /// Fills the lane set in order, so sequential acquires on a fresh
  /// registry get lanes 0, 1, 2, ...
  explicit LaneRegistry(int max_lanes) : max_lanes_(max_lanes) {
    C2SL_CHECK(max_lanes >= 1, "need at least one lane");
    for (int64_t l = 0; l < max_lanes; ++l) free_.put(l);
  }
  LaneRegistry(const LaneRegistry&) = delete;
  LaneRegistry& operator=(const LaneRegistry&) = delete;

  /// Returns a lane in [0, max_lanes) owned exclusively by the caller until
  /// it is release()d, or kNone when every lane is currently held. Lock-free:
  /// the only loop is inside NativeSet::take's Algorithm 2 stabilisation.
  int try_acquire() {
    int64_t lane = free_.take();
    return lane == rt::NativeSet::kEmpty ? kNone : static_cast<int>(lane);
  }

  /// Like try_acquire(), but when every lane is held the caller enqueues a
  /// handoff ticket and PARKS until a release hands it a lane directly.
  /// FIFO-fair in enqueue order (modulo revocation retries, which re-enqueue
  /// at the back, and timeouts: docs/PROOFS.md); never busy-spins.
  int acquire_blocking();

  /// Deadline form of acquire_blocking(): returns kNone when `deadline`
  /// passes first. A lane that is handed over in the race window of the
  /// timeout's cancellation is kept and returned (success beats timeout) —
  /// lanes are never dropped.
  int acquire_for(std::chrono::nanoseconds timeout);

  /// Returns `lane` to the registry — to the oldest blocked acquire_blocking
  /// caller when one is waiting (direct handoff, no free-set round trip),
  /// else to the free set. The caller must own it (acquired and not yet
  /// released) — a double release would let two sessions share a lane and
  /// silently corrupt each other's register lanes, which is precisely the bug
  /// class the registry exists to remove.
  void release(int lane);

  int max_lanes() const { return max_lanes_; }

  // --- handoff introspection (diagnostics; the stress bounds ride on these) --
  /// Waiter tickets ever enqueued by blocked acquires.
  int64_t handoff_enqueued() const { return handoff_.enqueued(); }
  /// Lanes delivered directly to a waiter (never touched the free set).
  int64_t handoff_deliveries() const { return handoff_.deliveries(); }
  /// Overshot handoff slots (waiter retried; lane went to the free set).
  int64_t handoff_revocations() const { return handoff_.revocations(); }
  /// Times a blocked acquire actually parked (<= handoff_enqueued()).
  int64_t handoff_parks() const { return handoff_.parks(); }

 private:
  /// The one blocking-acquire loop behind acquire_blocking() (no deadline:
  /// parks with a futex-style await) and acquire_for() (parks with
  /// await_until, returning kNone once `deadline` passes).
  int acquire_until(
      std::optional<std::chrono::steady_clock::time_point> deadline);

  int max_lanes_;
  /// Lanes not currently held (Thm 10 set: put/take, no CAS, unbounded).
  rt::NativeSet free_;
  /// Blocked acquirers awaiting a direct lane handoff (FIFO, no CAS,
  /// unbounded; see runtime/handoff_queue.h for the cell protocol).
  rt::HandoffQueue handoff_;
};

}  // namespace c2sl::svc
