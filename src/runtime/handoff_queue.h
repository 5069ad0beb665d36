// HandoffQueue — a wait-aware FIFO handoff queue from consensus-number-2
// primitives: two fetch&add ticket words and single-use swap (exchange) cells
// on a SegmentedArray spine (whose per-segment publication claim is the
// readable test&set of runtime/segmented_array.h). No CAS anywhere, no
// capacity knobs — the cell array grows like every other unbounded
// construction in this runtime.
//
// The queue transfers VALUES (non-negative int64s — lane ids in the service
// layer) from releasers to waiters, first-come-first-served in waiter order:
//
//   enqueue():   w = Tail.fetch&add(1)           — the waiter's ticket. This
//                single FAA is the whole enqueue and its linearization point,
//                a fixed own-step.
//   hand(v):     guard Head < Tail, then h = Head.fetch&add(1) — the handoff's
//                commitment: slot h is THIS handoff's target, decided at the
//                FAA regardless of the future. The value moves by one
//                exchange on cell h. Contrast Herlihy–Wing's dequeue, which
//                SCANS for the first ready slot and therefore decides its
//                target by future publication order — linearizable but not
//                strongly linearizable (Theorem 17 regime; Herlihy–Wing is
//                the pinned refutation on the same trees).
//   await(w):    park on cell w until a value or a revocation arrives.
//   cancel(w):   exchange a tombstone into cell w; returns the value instead
//                if a delivery won the race (the caller then owns it). It
//                can void a hand() committed to slot w (FIFO in commitment
//                order only around timeouts: docs/PROOFS.md).
//
// Cell state machine (each cell is written at most once by each party, all
// transitions are exchanges, so both sides of every race learn the outcome
// from their own swap's return value):
//
//   kCellEmpty --claim(waiter)--> kCellClaimed --deliver--> value   (waiter parked)
//       |  \--deliver--> value   (waiter finds it at claim: no park)
//       |  \--revoke---> kCellRevoked  (overshoot: waiter retries at claim)
//       \--cancel(waiter)--> kCellCancelled  (deliverer skips to next slot)
//
// The overshoot (revocation) path: hand() may win a Head ticket h and then
// observe Tail <= h — the guard passed on a waiter that a concurrent hand()
// already targeted. The slot is killed with kCellRevoked so the waiter that
// eventually takes ticket h retries instead of parking on a dead slot, and
// hand() reports failure: the caller still owns the value and must route it
// through its fallback (the lane registry's free set). Callers that fall
// back MUST re-check waiters_pending() after publishing the value to the
// fallback and pull it back for a late waiter — the Dekker-style re-check in
// svc::LaneRegistry::release; without it a waiter that polled the fallback
// just before the publish parks forever.
//
// Parking uses wait/notify_one on the waiter's own cell. Parking is a
// SCHEDULING concern, not part of the linearizability story: every protocol
// decision above is made by a swap or fetch&add; the wait merely stops the
// waiter from burning cycles until its cell changes. Wakeups are targeted
// (one notify per delivery or revocation, to exactly the affected waiter —
// no thundering herd), so parks are bounded by enqueues and enqueues by
// acquisitions + revocations; the TSAN stress in
// tests/c2store_stress_test.cpp asserts both bounds through the counters
// below. Timed waits (await_until) poll their own cell with a bounded
// backoff instead, because C++ atomic waits have no deadline form.
//
// Written once over a memory policy (runtime/native_mem.h): HandoffQueue is
// the NativeMem instantiation, and tests/handoff_queue_test.cpp checks
// BasicHandoffQueue<SimMem>, whose wait is one step offered once the cell
// changed (sim/sim_mem.h). The diagnostics counters stay std::atomic, so
// they take no step.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "runtime/native_mem.h"
#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

template <typename Mem>
class BasicHandoffQueue {
 public:
  /// await()/cancel() outcome: the waiter's slot was revoked by an
  /// overshooting hand() — the fallback path was refilled, retry there.
  static constexpr int64_t kRevoked = -1;
  /// cancel() outcome: the slot was tombstoned before any delivery.
  static constexpr int64_t kCancelled = -2;
  /// await_until() outcome: the deadline passed with the slot still live.
  /// The ticket remains claimed — the caller must cancel() (and honour a
  /// value that raced in) before abandoning it.
  static constexpr int64_t kTimedOut = -3;

  BasicHandoffQueue() = default;
  BasicHandoffQueue(const BasicHandoffQueue&) = delete;
  BasicHandoffQueue& operator=(const BasicHandoffQueue&) = delete;

  /// Registers the caller as a waiter; returns its ticket. The fetch&add IS
  /// the enqueue — after it, every hand() is obliged to serve this ticket
  /// before any later one (FIFO by ticket order).
  size_t enqueue() {
    C2SL_TEL_PRIM_FAA();
    // c2sl-atomic: faa seq_cst — Tail ticket IS the enqueue (fixed own-step)
    return static_cast<size_t>(tail_.fetch_add(1, std::memory_order_seq_cst));
  }

  /// Delivers `value` (>= 0) to the oldest live waiter. Returns true when the
  /// value was handed to some waiter's cell (a parked waiter is woken; one
  /// mid-enqueue finds the value at its claim). Returns false when no waiter
  /// was visible — the caller keeps the value and must route it through its
  /// fallback, then re-check waiters_pending() (header comment).
  bool hand(int64_t value) {
    C2SL_CHECK(value >= 0, "handoff values must be non-negative");
    for (;;) {
      // Guard: consume a Head ticket only when a waiter is visible. Without
      // it, every hand() with no waiter would draw a Head ticket past Tail
      // and revoke that slot, so the next waiter drawing it would have to
      // retry; with it, the common no-waiter case is two loads and no RMW.
      // The overshoot branch below handles the race it cannot close.
      // c2sl-atomic: load seq_cst, load seq_cst — Dekker-style guard: the
      // Head/Tail pre-reads must not reorder or an empty queue leaks tickets
      if (head_.load(std::memory_order_seq_cst) >=
          tail_.load(std::memory_order_seq_cst)) {
        return false;
      }
      C2SL_TEL_PRIM_FAA();
      // c2sl-atomic: faa seq_cst — Head ticket commits this hand to slot h
      size_t h = static_cast<size_t>(head_.fetch_add(1, std::memory_order_seq_cst));
      // c2sl-atomic: load seq_cst — overshoot re-check against the real Tail
      if (static_cast<int64_t>(h) >= tail_.load(std::memory_order_seq_cst)) {
        // Overshoot: a concurrent hand() served the waiter the guard saw.
        // Kill slot h so its eventual waiter retries rather than parking on
        // a slot no hand() will ever target again.
        C2SL_TEL_PRIM_SWAP();
        // c2sl-atomic: swap seq_cst — tombstone deposit; decision step on cell h
        int64_t prev = cell(h).exchange(kCellRevoked, std::memory_order_seq_cst);
        // c2sl-atomic: faa relaxed noprofile — diagnostics counter, no protocol role
        revocations_.fetch_add(1, std::memory_order_relaxed);
        // c2sl-atomic: wait-notify n/a — wake the parked waiter to see the tombstone
        if (prev == kCellClaimed) cell(h).notify_one();  // waiter already parked
        // prev == kCellEmpty: the waiter will see the tombstone at its claim.
        // prev == kCellCancelled: the waiter is gone anyway.
        // prev cannot be a value: only hand() writes values, one ticket each.
        return false;
      }
      C2SL_TEL_PRIM_SWAP();
      // c2sl-atomic: swap seq_cst — value deposit; linearization point of hand
      int64_t prev = cell(h).exchange(encode(value), std::memory_order_seq_cst);
      if (prev == kCellCancelled) continue;  // waiter timed out: next waiter
      // c2sl-atomic: faa relaxed noprofile — diagnostics counter, no protocol role
      deliveries_.fetch_add(1, std::memory_order_relaxed);
      // c2sl-atomic: wait-notify n/a — wake the parked waiter to collect
      if (prev == kCellClaimed) cell(h).notify_one();  // waiter parked: wake it
      // prev == kCellEmpty: waiter between its ticket FAA and its claim — its
      // claim exchange will return the value without ever parking.
      return true;
    }
  }

  /// Parks until ticket `t` receives a value (returned, >= 0) or is revoked
  /// (kRevoked — the fallback was refilled; re-poll it and re-enqueue).
  int64_t await(size_t t) {
    int64_t claimed = claim(t);
    if (claimed != kCellClaimed) return settle(claimed);
    Word& c = cell(t);
    // c2sl-atomic: faa relaxed noprofile — diagnostics counter, no protocol role
    parks_.fetch_add(1, std::memory_order_relaxed);
    // c2sl-atomic: load seq_cst — poll own cell for the deposited value
    int64_t v = c.load(std::memory_order_seq_cst);
    while (v == kCellClaimed) {
      // c2sl-atomic: wait-notify seq_cst — futex-style park; no busy spin
      c.wait(kCellClaimed);
      // c2sl-atomic: load seq_cst — re-read after wake (spurious wakes allowed)
      v = c.load(std::memory_order_seq_cst);
    }
    return settle(v);
  }

  /// Like await() but gives up at `deadline`, returning kTimedOut with the
  /// slot still claimed — the caller must cancel() and honour a racing
  /// delivery. The wait polls the caller's OWN cell with exponential backoff
  /// (1us doubling to 1ms): C++ atomic waits have no deadline form, and a
  /// bounded-frequency probe of a private cell is not contended spinning.
  int64_t await_until(size_t t, std::chrono::steady_clock::time_point deadline) {
    int64_t claimed = claim(t);
    if (claimed != kCellClaimed) return settle(claimed);
    Word& c = cell(t);
    // c2sl-atomic: faa relaxed noprofile — diagnostics counter, no protocol role
    parks_.fetch_add(1, std::memory_order_relaxed);
    std::chrono::microseconds backoff{1};
    for (;;) {
      // c2sl-atomic: load seq_cst — bounded-frequency probe of the own cell
      int64_t v = c.load(std::memory_order_seq_cst);
      if (v != kCellClaimed) return settle(v);
      if (std::chrono::steady_clock::now() >= deadline) return kTimedOut;
      std::this_thread::sleep_for(backoff);
      if (backoff < std::chrono::microseconds{1000}) backoff *= 2;
    }
  }

  /// Abandons ticket `t`. Returns kCancelled when the tombstone landed first
  /// (no value was or will be delivered here), kRevoked when the slot was
  /// already dead, or the VALUE when a delivery won the race — the caller
  /// then owns that value and must not drop it.
  int64_t cancel(size_t t) {
    C2SL_TEL_PRIM_SWAP();
    // c2sl-atomic: swap seq_cst — cancellation races the deposit; swap decides
    int64_t prev = cell(t).exchange(kCellCancelled, std::memory_order_seq_cst);
    if (prev >= kValueBase) return decode(prev);
    if (prev == kCellRevoked) return kRevoked;
    return kCancelled;  // prev was kCellEmpty or our own kCellClaimed
  }

  /// Whether any enqueued waiter has not yet been targeted by a hand().
  /// Callers use this for the post-fallback re-check; it may transiently
  /// report true for waiters that are concurrently cancelling (harmless: the
  /// recovering hand() skips tombstones).
  bool waiters_pending() const {
    // c2sl-atomic: load seq_cst, load seq_cst — same Dekker discipline as the
    // hand() guard: the post-fallback re-check must see any committed ticket
    return head_.load(std::memory_order_seq_cst) <
           tail_.load(std::memory_order_seq_cst);
  }

  // --- introspection (diagnostics and the no-busy-spin stress bounds) -------
  // c2sl-atomic: load relaxed — diagnostics-only view of Tail
  int64_t enqueued() const { return tail_.load(std::memory_order_relaxed); }
  // c2sl-atomic: load relaxed — diagnostics-only view of Head
  int64_t hands_started() const { return head_.load(std::memory_order_relaxed); }
  // c2sl-atomic: load relaxed — diagnostics counter read
  int64_t deliveries() const { return deliveries_.load(std::memory_order_relaxed); }
  // c2sl-atomic: load relaxed — diagnostics counter read
  int64_t revocations() const { return revocations_.load(std::memory_order_relaxed); }
  // c2sl-atomic: load relaxed — diagnostics counter read
  int64_t parks() const { return parks_.load(std::memory_order_relaxed); }

 private:
  // Cell markers (values v are stored as v + kValueBase, so markers and
  // payloads never collide).
  static constexpr int64_t kCellEmpty = 0;
  static constexpr int64_t kCellClaimed = 1;
  static constexpr int64_t kCellCancelled = 2;
  static constexpr int64_t kCellRevoked = 3;
  static constexpr int64_t kValueBase = 4;

  static int64_t encode(int64_t v) { return v + kValueBase; }
  static int64_t decode(int64_t c) { return c - kValueBase; }

  using Word = typename Mem::template Word<int64_t>;
  struct Cell {
    Word v{kCellEmpty};
  };

  Word& cell(size_t i) { return cells_.cell(i).v; }

  /// The waiter's claim: announce presence on the cell. Returns kCellClaimed
  /// when the waiter should park, else the pre-claim content (a value or a
  /// revocation tombstone) to settle immediately.
  int64_t claim(size_t t) {
    C2SL_TEL_PRIM_SWAP();
    // c2sl-atomic: swap seq_cst — claim announces the waiter on its own cell
    int64_t prev = cell(t).exchange(kCellClaimed, std::memory_order_seq_cst);
    if (prev == kCellEmpty) return kCellClaimed;
    return prev;  // encoded value or kCellRevoked; never claimed/cancelled
  }

  int64_t settle(int64_t raw) {
    if (raw >= kValueBase) return decode(raw);
    C2SL_CHECK(raw == kCellRevoked, "handoff cell in impossible state");
    return kRevoked;
  }

  /// Waiter tickets (enqueue count). Monotone; ticket w exists iff tail > w.
  Word tail_{0};
  /// Handoff tickets (hand commitments). Monotone; slot h is targeted by
  /// exactly the hand() whose fetch&add returned h.
  Word head_{0};
  typename Mem::template Array<Cell> cells_;

  std::atomic<int64_t> deliveries_{0};
  std::atomic<int64_t> revocations_{0};
  std::atomic<int64_t> parks_{0};
};

using HandoffQueue = BasicHandoffQueue<NativeMem>;

}  // namespace c2sl::rt
