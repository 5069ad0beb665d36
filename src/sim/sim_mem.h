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
//   * RefWord<T>: the same SimWord, and ref(w) returns it, so code written
//     as Mem::ref(w).load(order) runs each access as one step here.
//   * Array<T>: the paper's infinite array. cell(i) and peek(i) take no step
//     (there is no spine), cells start in their initial state (a SimWord
//     cell at 0), peek is never null. populate() is nothing: the native
//     prefault changes no cell's value.
//
// A word's value lives in the word, not in a World: the explorer replays each
// configuration from the scenario's start, so a word needs only its gate.
// Each step appends the value it FINDS (a store: the value it overwrites) to
// the process's found-value log, which keys the explorer's configurations
// (sim/explorer.h). A pointer word logs only null or non-null, so it may be
// written only while null: which object it then holds is fixed by the
// writer's own log.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <type_traits>

#include "util/assert.h"

namespace c2sl::sim {

/// One step of the running fiber on a SimMem word (`op` names the access in
/// the step trace); no step outside a scheduled fiber.
void mem_step(const char* op);

/// A blocking wait's step, not offered while `unchanged()` holds. Outside a
/// scheduled fiber it takes no step, and an unchanged word is a checked error.
void mem_wait(std::function<bool()> unchanged);

/// Appends the `n` bytes at `found` to the running fiber's found-value log;
/// nothing outside a scheduled fiber.
void mem_found(const void* found, size_t n);

template <typename T>
class SimWord {
  static_assert(std::is_pointer_v<T> || std::has_unique_object_representations_v<T>,
                "a found value is logged by its bytes");

 public:
  constexpr SimWord() = default;
  constexpr SimWord(T v) : v_(v) {}  // NOLINT: implicit, like std::atomic<T>
  SimWord(const SimWord&) = delete;
  SimWord& operator=(const SimWord&) = delete;

  T load(std::memory_order = std::memory_order_seq_cst) const { return step("load"); }
  void store(T v, std::memory_order = std::memory_order_seq_cst) {
    step("store");
    write(v);
  }
  T fetch_add(T d, std::memory_order = std::memory_order_seq_cst) {
    const T old = step("fetch&add");
    v_ = static_cast<T>(old + d);
    return old;
  }
  T exchange(T v, std::memory_order = std::memory_order_seq_cst) {
    const T old = step("exchange");
    write(v);
    return old;
  }
  void wait(T old, std::memory_order = std::memory_order_seq_cst) const {
    mem_wait([this, old] { return v_ == old; });
    log_found();
  }
  void notify_one() {}

 private:
  T step(const char* op) const {
    mem_step(op);
    log_found();
    return v_;
  }
  void log_found() const {
    const auto found = [this] {
      if constexpr (std::is_pointer_v<T>) return v_ != nullptr; else return v_;
    }();
    mem_found(&found, sizeof found);
  }
  void write(T v) {
    if constexpr (std::is_pointer_v<T>) C2SL_CHECK(v_ == nullptr, "a pointer word is written once");
    v_ = v;
  }

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
  void populate(size_t, size_t) {}

 private:
  mutable std::deque<T> cells_;
};

struct SimMem {
  template <typename T>
  using Word = SimWord<T>;
  template <typename T>
  using RefWord = SimWord<T>;
  template <typename T>
  static SimWord<T>& ref(SimWord<T>& w) {
    return w;
  }
  template <typename T>
  using Array = SimArray<T>;
};

}  // namespace c2sl::sim
