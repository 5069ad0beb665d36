// SimMem — the checker's memory policy for the runtime constructions written
// over `Mem` (runtime/native_mem.h), so the explorer runs the serving code:
//
//   * Word<T>: each load / store / fetch_add / exchange is ONE atomic step, a
//     Ctx::gate of the fiber the scheduler is running (running_ctx()). The
//     memory order is ignored: the checker explores sequential consistency
//     only (docs/PROOFS.md, "The memory policy"). An access outside any
//     scheduled fiber (a scenario's setup) takes no step. wait(old) is one
//     step the scheduler offers only once the word differs from `old`
//     (futex semantics); notify_one() is none, the change itself unblocks.
//   * Array<T>: the paper's infinite array. cell(i) and peek(i) take no step
//     (there is no spine), cells start value-initialised, peek is never null.
//
// A word's value lives in the word, not in a World: the explorer replays each
// node from the scenario's start, so a word needs only its gate.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>

namespace c2sl::sim {

/// One step of the running fiber on a SimMem word (`op` names the access in
/// the step trace); no step outside a scheduled fiber.
void mem_step(const char* op);

/// A blocking wait's step, not offered while `unchanged()` holds. Outside a
/// scheduled fiber it takes no step, and an unchanged word is a checked error.
void mem_wait(std::function<bool()> unchanged);

template <typename T>
class SimWord {
 public:
  constexpr SimWord() = default;
  constexpr SimWord(T v) : v_(v) {}  // NOLINT: implicit, like std::atomic<T>
  SimWord(const SimWord&) = delete;
  SimWord& operator=(const SimWord&) = delete;

  T load(std::memory_order = std::memory_order_seq_cst) const {
    mem_step("load");
    return v_;
  }
  void store(T v, std::memory_order = std::memory_order_seq_cst) {
    mem_step("store");
    v_ = v;
  }
  T fetch_add(T d, std::memory_order = std::memory_order_seq_cst) {
    mem_step("fetch&add");
    T old = v_;
    v_ = static_cast<T>(v_ + d);
    return old;
  }
  T exchange(T v, std::memory_order = std::memory_order_seq_cst) {
    mem_step("exchange");
    T old = v_;
    v_ = v;
    return old;
  }
  void wait(T old, std::memory_order = std::memory_order_seq_cst) const {
    mem_wait([this, old] { return v_ == old; });
  }
  void notify_one() {}

 private:
  T v_{};
};

template <typename T>
class SimArray {
 public:
  T& cell(size_t i) { return *peek(i); }
  T* peek(size_t i) const {
    while (cells_.size() <= i) cells_.emplace_back();  // no reallocation
    return &cells_[i];
  }

 private:
  mutable std::deque<T> cells_;
};

struct SimMem {
  template <typename T>
  using Word = SimWord<T>;
  template <typename T>
  using Array = SimArray<T>;
};

}  // namespace c2sl::sim
