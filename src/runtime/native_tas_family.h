// Native (std::atomic) variants of the §4 constructions:
//   * NativeReadableTAS     (Thm 5):  one exchange byte, read by a load
//                                     (runtime/publish_once.h);
//   * NativeMultishotTAS    (Thm 6):  max register + readable test&set array;
//   * NativeFetchIncrement  (Thm 9):  least-unset search over readable test&set;
//   * NativeSet             (Thm 10): Algorithm 2 over the above.
//
// std::atomic provides the exact consensus-number-2 primitives the paper
// assumes: exchange (test&set / swap) and fetch_add. CAS is never used.
//
// Arrays are UNBOUNDED: every construction stores its cells in a
// SegmentedArray (runtime/segmented_array.h) of lazily-published doubling
// segments, matching the paper's "infinite array" model with no capacity
// configuration. The only remaining bounds are the 63-bit lane-packing limits
// of NativeMaxRegister64 (a WIDTH constraint, §6), not array capacities.
//
// Two native-only refinements skip steps whose outcome is already fixed
// (docs/PROOFS.md, "The two native refinements", has both arguments):
//
//   * O(1) fetch&increment from a certified frontier. The set cells always
//     form a PREFIX [0, value), so one observation of a 1 at index i
//     certifies every index <= i. Every winner of cell i release-stores i+1
//     into one frontier word; inc and read start an exponential search
//     there, and read ends with one CONFIRMING read of the candidate: a 0
//     there after its prefix was certified pins the value — a fixed own step.
//   * A verified-taken-prefix hint in NativeSet::take. Taken flags never
//     clear, so take() records the longest all-taken prefix it verified in a
//     plain register and later sweeps start there. A stale smaller value is
//     sound; it keeps unbounded lane recycling (service/lane_registry.h) O(1)
//     amortized per acquire/release cycle.
//
// The array, fetch&increment and set are written once over a memory policy
// (runtime/native_mem.h): the Native* names are the NativeMem instantiations,
// and the checker runs BasicFetchIncrement<sim::SimMem> and
// BasicSet<sim::SimMem>, so both refinements are explored step by step.
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/native_max_register.h"
#include "runtime/publish_once.h"
#include "runtime/segmented_array.h"
#include "util/assert.h"

namespace c2sl::rt {

/// Thm 5 applied index-wise over an infinite array. Reads of cells in
/// unpublished segments return 0 without allocating (the cell is untouched by
/// definition — mutators publish the segment before exchanging any cell).
template <typename Mem>
class BasicReadableTasArray {
 public:
  using Cell = BasicReadableTAS<Mem>;

  BasicReadableTasArray() = default;

  int64_t test_and_set(size_t idx) { return cells_.cell(idx).test_and_set(); }
  int64_t read(size_t idx) const {
    const Cell* c = cells_.peek(idx);
    return c ? c->read() : 0;
  }

  /// Cell if published, nullptr otherwise (never allocates) — the
  /// fetch&increment search below drives this directly.
  const Cell* peek(size_t idx) const { return cells_.peek(idx); }

 private:
  typename Mem::template Array<Cell> cells_;
};

using NativeReadableTasArray = BasicReadableTasArray<NativeMem>;

class NativeMultishotTAS {
 public:
  /// `max_resets` bounds reset GENERATIONS, and comes from the 63-bit packing
  /// of the generation max register (n * (max_resets + 1) lane bits), not from
  /// array capacity — the test&set cells themselves are unbounded.
  NativeMultishotTAS(int n, int64_t max_resets)
      : max_resets_(max_resets), curr_(n, generations(n, max_resets)) {}

  int64_t test_and_set(int proc) {
    (void)proc;
    return ts_.test_and_set(index());
  }
  int64_t read() { return ts_.read(index()); }
  void reset(int proc) {
    size_t c = index();
    if (ts_.read(c) == 1) {
      curr_.write_max(proc, static_cast<int64_t>(c));  // logical curr := c + 1
    }
  }

  /// Reset generations consumed so far (0 .. max_resets). Callers that may run
  /// out of generations (e.g. the C2Store service layer) gate reset() on this;
  /// near exhaustion the gate is advisory only, so concurrent resetters must be
  /// externally serialized for the last generation.
  int64_t generation() { return curr_.read_max(); }
  int64_t max_resets() const { return max_resets_; }

 private:
  /// max_resets + 1, bounded by division first: the sum and the max
  /// register's product can both overflow int64.
  static int64_t generations(int n, int64_t max_resets) {
    C2SL_CHECK(n > 0 && max_resets >= 0 && max_resets <= 63 / n - 1,
               "n * (max_resets + 1) must fit in 63 bits");
    return max_resets + 1;
  }

  size_t index() { return static_cast<size_t>(curr_.read_max()) + 1; }

  int64_t max_resets_;
  NativeMaxRegister64 curr_;
  NativeReadableTasArray ts_;
};

template <typename Mem>
class BasicFetchIncrement {
 public:
  BasicFetchIncrement() = default;

  /// Wins the least available cell; the winning exchange is the linearization
  /// point (Thm 9). Starting the ascending scan at the searched lower bound
  /// skips only cells already certified set — cells a from-zero scan would
  /// have exchanged and lost — so the behaviour is exactly the paper's
  /// algorithm minus provably losing steps.
  int64_t fetch_and_increment() {
    // The increment path needs only the certified lower bound, not read()'s
    // confirming retry loop. A cell that reads 1 is certified set and its
    // exchange would lose, so the scan skips it with a load (after a lost
    // race the next cells are often already won).
    for (size_t i = set_bound();; ++i) {
      if (observed_set(i)) continue;
      if (cells_.test_and_set(i) == 0) {
        // c2sl-atomic: store release — certified-frontier publish (no RMW):
        // every cell below i+1 was set by a store that happens-before this
        // one (docs/PROOFS.md)
        frontier_.store(static_cast<int64_t>(i + 1), std::memory_order_release);
        return static_cast<int64_t>(i);
      }
    }
  }

  /// O(1) when the frontier is current, O(log lag) otherwise: see the header
  /// comment for the prefix invariant and the confirming-read argument
  /// (proof sketch: docs/PROOFS.md §"fetch&increment").
  int64_t read() const { return static_cast<int64_t>(first_unset()); }

 private:
  /// Whether cell i was observed set by this call (an unpublished segment
  /// counts as a 0-observation: the spine load is the atomic step, and no
  /// cell of an unpublished segment has ever been exchanged).
  bool observed_set(size_t i) const {
    const auto* c = cells_.peek(i);
    return c && c->read() == 1;
  }

  /// Certified lower bound: every index below the result was set at a step
  /// that happens-before this call's later steps (cells never clear).
  /// Exponential search from the frontier f: probe f, then f+1, f+2, f+4, ...
  /// until a 0, then binary-search that last gap. One observation of a 1
  /// certifies its whole prefix (header comment).
  size_t set_bound() const {
    // c2sl-atomic: load acquire — certified-frontier read, pairs with publish:
    // every cell below the loaded value reads as set after this load
    const size_t f =
        static_cast<size_t>(frontier_.load(std::memory_order_acquire));
    if (!observed_set(f)) return f;
    size_t lo = f + 1;  // every index < lo is certified set
    size_t step = 1;
    size_t hi = f + step;
    while (observed_set(hi)) {
      lo = hi + 1;
      step *= 2;
      hi = f + step;
    }
    while (lo < hi) {  // cell hi was observed unset; find the least in [lo, hi]
      size_t mid = lo + (hi - lo) / 2;
      if (observed_set(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Least index whose cell reads 0, linearized at the final read.
  size_t first_unset() const {
    for (;;) {
      size_t lo = set_bound();
      // Confirm: this read postdates the certification of every cell below
      // lo, so a 0 here pins the implemented value at exactly lo — the
      // linearization point. A 1 means other increments completed meanwhile;
      // rescan (lock-free for the same reason as the flat scan: only
      // completed wins can invalidate us).
      if (!observed_set(lo)) return lo;
    }
  }

  BasicReadableTasArray<Mem> cells_;
  typename Mem::template Word<int64_t> frontier_{0};  // every cell below is set
};

using NativeFetchIncrement = BasicFetchIncrement<NativeMem>;

namespace detail {
/// The set's item cell with the right initial state for value-initialised
/// segment construction (SegmentedArray news segments with `new T[n]()`).
template <typename Mem>
struct SetItemCell {
  typename Mem::template Word<int64_t> v{INT64_MIN};  // kEmpty
};
}  // namespace detail

template <typename Mem>
class BasicSet {
 public:
  static constexpr int64_t kEmpty = INT64_MIN;

  BasicSet() = default;

  void put(int64_t x) {
    int64_t m = max_.fetch_and_increment();
    // c2sl-atomic: store seq_cst — item deposit; put linearizes at this write
    items_.cell(static_cast<size_t>(m)).v.store(x, std::memory_order_seq_cst);
  }

  /// Returns the taken item or kEmpty. Algorithm 2's sweep, restricted to
  /// [hint, Max): cells below the hint are permanently taken (header comment),
  /// so the restriction removes no candidate and moves no linearization point.
  int64_t take() {
    // c2sl-atomic: load relaxed — advisory hint; any stale value is sound
    const size_t skip =
        static_cast<size_t>(taken_prefix_.load(std::memory_order_relaxed));
    int64_t taken_old = 0;
    int64_t max_old = 0;
    for (;;) {
      int64_t taken_new = 0;
      int64_t max_new = max_.read();
      size_t dead = skip;  // [0, dead) verified taken during this sweep
      for (int64_t c = static_cast<int64_t>(skip); c < max_new; ++c) {
        const auto* item = items_.peek(static_cast<size_t>(c));
        // c2sl-atomic: load seq_cst — Algorithm 2 sweep read of the item cell
        int64_t x = item ? item->v.load(std::memory_order_seq_cst) : kEmpty;
        if (x != kEmpty) {
          // The take decision: the test&set winner owns item c.
          if (ts_.test_and_set(static_cast<size_t>(c)) == 0) {
            if (static_cast<size_t>(c) == dead) ++dead;  // we just killed c too
            publish_hint(dead);
            return x;
          }
          ++taken_new;
          if (static_cast<size_t>(c) == dead) ++dead;
        }
        // x == kEmpty: a pending put may still land here — the cell is not
        // dead, so the verified prefix stops growing (dead stays < c + 1 and
        // the equality above fails for every later cell of this sweep).
      }
      if (taken_new == taken_old && max_new == max_old) {
        publish_hint(dead);
        return kEmpty;  // linearizes at this sweep's stabilised Max read
      }
      taken_old = taken_new;
      max_old = max_new;
    }
  }

 private:
  void publish_hint(size_t dead) {
    // Plain register store: racy by design. Any published value was verified
    // all-taken by its writer and taken flags never clear, so every value in
    // the register is a sound (possibly stale) lower bound.
    // c2sl-atomic: load relaxed — advisory-hint read; monotonicity is best-effort
    if (dead > static_cast<size_t>(taken_prefix_.load(std::memory_order_relaxed))) {
      // c2sl-atomic: store relaxed — advisory-hint write; sound even if lost
      taken_prefix_.store(static_cast<int64_t>(dead), std::memory_order_relaxed);
    }
  }

  BasicFetchIncrement<Mem> max_;
  typename Mem::template Array<detail::SetItemCell<Mem>> items_;
  BasicReadableTasArray<Mem> ts_;  // taken flags (only the exchange is used)
  typename Mem::template Word<int64_t> taken_prefix_{0};  // advisory hint
};

using NativeSet = BasicSet<NativeMem>;

}  // namespace c2sl::rt
