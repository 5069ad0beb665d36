// The scheduler: drives n simulated processes at base-object-step granularity.
//
// Model (paper §2): an execution is a sequence of steps, each a base-object
// operation by one process; processes are asynchronous and may crash at any
// point. Here the adversary is a Strategy that, at every point, picks which
// runnable process takes its next step (or crashes it). Executions are a
// deterministic function of the strategy's choice sequence, which is what makes
// replay, exhaustive exploration and counterexample minimisation possible.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/ctx.h"
#include "sim/fiber.h"
#include "sim/history.h"
#include "sim/world.h"

namespace c2sl::sim {

class Scheduler;

/// A scheduling decision: which process moves, and whether it crashes instead
/// of taking a step.
struct Choice {
  ProcId proc = -1;
  bool crash = false;
  friend bool operator==(const Choice&, const Choice&) = default;
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  /// `runnable` is non-empty and sorted ascending.
  virtual Choice choose(const Scheduler& sched, const std::vector<ProcId>& runnable) = 0;
};

class Scheduler {
 public:
  Scheduler(World& world, History& history, int n);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int n() const { return static_cast<int>(procs_.size()); }
  Ctx& ctx(ProcId p);

  /// Installs a program for process p and runs it up to its first gate (running
  /// the prologue immediately keeps one spawn == one process and makes every
  /// subsequent resume correspond to exactly one atomic step).
  void spawn(ProcId p, std::function<void(Ctx&)> program);

  /// Processes that are parked at a gate (have a pending step), not crashed,
  /// and not blocked in a wait on an unchanged word (Ctx::blocked).
  std::vector<ProcId> runnable() const;

  bool all_done() const { return runnable().empty(); }

  /// Grants process p one atomic step; p must be runnable. Returns true if the
  /// process is still runnable afterwards.
  bool step(ProcId p);

  /// Crashes process p: its fiber unwinds without taking further steps.
  void crash(ProcId p);

  void apply(const Choice& c);

  struct RunResult {
    uint64_t steps = 0;
    bool all_done = false;
  };

  /// Repeatedly asks the strategy for choices until no process is runnable or
  /// `max_steps` choices were applied.
  RunResult run(Strategy& strategy, uint64_t max_steps);

  uint64_t total_steps() const { return total_steps_; }

  /// The configuration key: per process, whether it is unspawned, running,
  /// finished or crashed, and its found-value log (Ctx::found). Deterministic
  /// code makes the log fix the process's local state, and the logs together
  /// fix every shared value (docs/PROOFS.md, "Reading a checker verdict").
  std::string configuration() const;

  /// Called by Ctx::gate().
  void gate_impl(ProcId p);

 private:
  struct Proc {
    std::unique_ptr<Fiber> fiber;
    Ctx ctx;
    bool spawned = false;
    bool crashed = false;
    bool crash_requested = false;
  };

  static bool can_step(const Proc& proc);

  World& world_;
  History& history_;
  std::vector<Proc> procs_;
  uint64_t total_steps_ = 0;
  ProcId running_ = -1;  // process currently inside resume(), -1 if none
};

/// Readability of base objects (Lemma 16): one atomic step that returns the
/// full current state of object `idx` in the world. Algorithm B's collect(R)
/// is built from this.
std::string read_object_state(Ctx& ctx, size_t idx);

}  // namespace c2sl::sim
