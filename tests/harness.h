// Shared test harness: generic workload drivers over the uniform
// ConcurrentObject API, so every construction is exercised by the same
// machinery — random-schedule linearizability sweeps, exhaustive small-config
// exploration, and strong-linearizability model checks.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/object_api.h"
#include "sim/explorer.h"
#include "sim/sim_run.h"
#include "sim/strategy.h"
#include "util/assert.h"
#include "util/rng.h"
#include "verify/lin_checker.h"
#include "verify/strong_lin.h"

namespace c2sl::testing {

/// Creates the object under test inside a run's world.
using ObjectFactory =
    std::function<std::shared_ptr<core::ConcurrentObject>(sim::World&, int n)>;

/// Produces the j-th invocation of process p (deterministic given the Rng).
using OpGen = std::function<verify::Invocation(int proc, int op_index, Rng& rng)>;

struct WorkloadOptions {
  int n = 3;
  int ops_per_proc = 3;
  uint64_t seed = 1;
  uint64_t max_steps = 500000;
  double crash_prob = 0.0;
  int max_crashes = 0;
};

struct WorkloadResult {
  std::vector<sim::OpRecord> ops;
  std::vector<sim::Event> events;
  bool all_done = false;
  uint64_t steps = 0;
};

/// Runs one random-schedule workload and returns the recorded history.
inline WorkloadResult run_random_workload(const ObjectFactory& factory, const OpGen& gen,
                                          const WorkloadOptions& opts) {
  sim::SimRun run(opts.n);
  std::shared_ptr<core::ConcurrentObject> obj = factory(run.world, opts.n);
  for (int p = 0; p < opts.n; ++p) {
    run.sched.spawn(p, [obj, gen, p, &opts](sim::Ctx& ctx) {
      Rng rng(opts.seed * 1000003 + static_cast<uint64_t>(p));
      for (int j = 0; j < opts.ops_per_proc; ++j) {
        verify::Invocation inv = gen(p, j, rng);
        inv.proc = p;
        core::invoke_recorded(ctx, *obj, inv);
      }
    });
  }
  sim::RandomStrategy strategy(opts.seed ^ 0xabcdef, opts.crash_prob, opts.max_crashes);
  auto rr = run.sched.run(strategy, opts.max_steps);

  WorkloadResult result;
  result.all_done = rr.all_done;
  result.steps = rr.steps;
  result.ops = run.history.operations();
  result.events = run.history.events();
  return result;
}

/// Builds a scenario (for the explorer) where each process runs a FIXED list of
/// invocations on the object under test.
inline sim::ScenarioFn fixed_scenario(const ObjectFactory& factory,
                                      std::vector<std::vector<verify::Invocation>> per_proc) {
  return [factory, per_proc = std::move(per_proc)](sim::SimRun& run) {
    std::shared_ptr<core::ConcurrentObject> obj = factory(run.world, run.n());
    for (int p = 0; p < run.n(); ++p) {
      auto invs = per_proc[static_cast<size_t>(p)];
      run.sched.spawn(p, [obj, invs, p](sim::Ctx& ctx) {
        for (verify::Invocation inv : invs) {
          inv.proc = p;
          core::invoke_recorded(ctx, *obj, inv);
        }
      });
    }
  };
}

/// A checker object over a runtime fetch&increment written over a memory
/// policy (rt::BasicFetchIncrement<sim::SimMem>, or a test-local mutant of
/// it): its operations take no Ctx, because every SimMem word gates through
/// the running fiber (sim/sim_mem.h). Ops "FAI" and "Read", as
/// verify::FaiSpec names them.
template <typename Fai>
class MemFaiObject : public core::ConcurrentObject {
 public:
  explicit MemFaiObject(std::string name) : name_(std::move(name)) {}
  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx&, const verify::Invocation& inv) override {
    if (inv.name == "FAI") return num(fai_.fetch_and_increment());
    C2SL_CHECK(inv.name == "Read", "unknown operation: " + inv.name);
    return num(fai_.read());
  }

 private:
  std::string name_;
  Fai fai_;
};

/// The set counterpart (rt::BasicSet<sim::SimMem> or a mutant): "Put"(x) ->
/// "OK", "Take" -> item | "EMPTY", as verify::SetSpec names them.
template <typename Set>
class MemSetObject : public core::ConcurrentObject {
 public:
  explicit MemSetObject(std::string name) : name_(std::move(name)) {}
  std::string object_name() const override { return name_; }
  Val apply(sim::Ctx&, const verify::Invocation& inv) override {
    if (inv.name == "Put") {
      set_.put(as_num(inv.args));
      return str("OK");
    }
    C2SL_CHECK(inv.name == "Take", "unknown operation: " + inv.name);
    int64_t x = set_.take();
    return x == Set::kEmpty ? str("EMPTY") : num(x);
  }

 private:
  std::string name_;
  Set set_;
};

/// Random-schedule linearizability sweep: many seeds, one verdict.
inline ::testing::AssertionResult lin_sweep(const ObjectFactory& factory, const OpGen& gen,
                                            const verify::Spec& spec,
                                            WorkloadOptions opts, int num_seeds,
                                            const std::string& object_name) {
  for (int s = 0; s < num_seeds; ++s) {
    opts.seed = static_cast<uint64_t>(s) + 1;
    WorkloadResult r = run_random_workload(factory, gen, opts);
    auto lin = verify::check_object_linearizability(r.ops, object_name, spec);
    if (!lin.decided) {
      return ::testing::AssertionFailure()
             << "seed " << s << ": linearizability check undecided (budget)";
    }
    if (!lin.linearizable) {
      return ::testing::AssertionFailure()
             << "seed " << s << ": NOT linearizable\n"
             << lin.explanation;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace c2sl::testing
