// Per-process execution context.
//
// Every operation implementation in this library is written against a Ctx: the
// context names the executing process, points at the world holding the shared
// base objects, and (when running under a scheduler) gates every base-object
// access so the scheduler controls the interleaving.
//
// Two modes:
//  * scheduled: `sched != nullptr` — gate() parks the fiber until the scheduler
//    grants the process its next atomic step; crash injection unwinds here.
//  * solo: `sched == nullptr` — gate() is free. Used by Lemma 12's algorithm B
//    to locally simulate decision sequences on a cloned world, and by purely
//    sequential tests.
//
// The pre-step hook implements algorithm B's instrumentation ("increment t and
// write T[i] before executing the next step of A", Lemma 12 step 3): the hook
// runs immediately before each gated step, and is suppressed re-entrantly so
// the hook's own base-object accesses are ordinary steps.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "sim/history.h"
#include "sim/world.h"
#include "util/value.h"

namespace c2sl::sim {

class Scheduler;

/// Thrown from Ctx::gate() in solo mode when the step budget is exhausted:
/// a local simulation (Lemma 12 step 6) failed to terminate within bounds.
struct SoloBudgetExceeded {};

struct Ctx {
  World* world = nullptr;
  Scheduler* sched = nullptr;
  History* hist = nullptr;
  ProcId self = 0;

  /// Solo mode only: remaining gate budget before SoloBudgetExceeded.
  uint64_t solo_budget = UINT64_MAX;

  std::function<void(Ctx&)> pre_step_hook;
  bool in_hook = false;

  /// Total base-object steps this process has taken (drives wait-freedom
  /// step-bound measurements).
  uint64_t steps_taken = 0;

  /// Atomic-step gate: called by every simulated primitive exactly once, at the
  /// operation's atomic point. Defined in scheduler.cpp.
  void gate(const std::string& object_name, const std::string& desc);

  /// History helpers used by test drivers (not by implementations; inner
  /// operations of layered implementations are implementation detail and do not
  /// appear in the recorded high-level history).
  OpId begin_op(std::string_view object, std::string_view name, Val args);
  void end_op(OpId id, Val resp);
};

/// The context of the fiber the scheduler is running on this thread, or
/// nullptr outside any scheduled step (the scheduler publishes it around
/// every resume). SimMem words gate through it (sim/sim_mem.h).
Ctx* running_ctx();

/// Runs `f` as one recorded high-level operation and returns its response.
template <typename F>
Val record_op(Ctx& c, std::string_view object, std::string_view name, Val args, F&& f) {
  OpId id = c.begin_op(object, name, std::move(args));
  Val r = std::forward<F>(f)();
  c.end_op(id, r);
  return r;
}

}  // namespace c2sl::sim
