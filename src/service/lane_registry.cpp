#include "service/lane_registry.h"

#include "util/assert.h"

namespace c2sl::svc {

int LaneRegistry::acquire_blocking() { return acquire_until(std::nullopt); }

int LaneRegistry::acquire_for(std::chrono::nanoseconds timeout) {
  return acquire_until(std::chrono::steady_clock::now() + timeout);
}

int LaneRegistry::acquire_until(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  for (;;) {
    int lane = try_acquire();
    if (lane != kNone) return lane;
    size_t t = handoff_.enqueue();
    // Re-poll AFTER the enqueue made this waiter visible: a release whose
    // hand() guard ran before the enqueue routed its lane to the free set,
    // and its post-put re-check may have run before the enqueue too — this
    // probe is the waiter's half of that Dekker pair (release() holds the
    // other half), so one of the two always sees the lane.
    lane = try_acquire();
    if (lane != kNone) {
      int64_t raced = handoff_.cancel(t);
      // A delivery can beat the cancellation; this caller then briefly owns
      // TWO lanes and must return one (to the next waiter or the free set).
      if (raced >= 0) release(static_cast<int>(raced));
      return lane;
    }
    int64_t v = deadline ? handoff_.await_until(t, *deadline) : handoff_.await(t);
    if (v == rt::HandoffQueue::kTimedOut) {
      v = handoff_.cancel(t);
      if (v >= 0) return static_cast<int>(v);  // a delivery beat the timeout
      return kNone;
    }
    if (v == rt::HandoffQueue::kRevoked) {
      // The free set was refilled: retry (within the deadline, if any).
      if (deadline && std::chrono::steady_clock::now() >= *deadline) {
        return kNone;
      }
      continue;
    }
    return static_cast<int>(v);
  }
}

void LaneRegistry::release(int lane) {
  C2SL_CHECK(lane >= 0 && lane < max_lanes_, "lane out of range");
  int64_t l = lane;
  for (;;) {
    // Direct handoff first: the oldest blocked acquirer gets the lane without
    // a free-set round trip (and without racing opportunistic try_acquires).
    if (handoff_.hand(l)) return;
    free_.put(l);
    // Dekker re-check: a waiter may have enqueued between hand()'s guard and
    // the put above, then missed the lane in its own probe. If one is
    // visible, pull a lane back out and hand it; an empty take means some
    // other thread took the lane meanwhile (progress either way).
    if (!handoff_.waiters_pending()) return;
    int64_t back = free_.take();
    if (back == rt::NativeSet::kEmpty) return;
    l = back;
  }
}

}  // namespace c2sl::svc
