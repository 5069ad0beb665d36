// CHK — verification tooling meta-experiment: linearizability-checker cost vs
// history length, and strong-linearizability model-checker cost vs execution-
// tree size. Justifies the bounded configs used in the test suite.
#include <benchmark/benchmark.h>

#include "core/max_register_faa.h"
#include "sim/explorer.h"
#include "sim/sim_run.h"
#include "sim/strategy.h"
#include "util/rng.h"
#include "verify/lin_checker.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

namespace {

using namespace c2sl;

std::vector<sim::OpRecord> make_history(int n, int ops_per_proc, uint64_t seed) {
  sim::SimRun run(n);
  auto obj = std::make_shared<core::MaxRegisterFAA>(run.world, "m", n);
  for (int p = 0; p < n; ++p) {
    run.sched.spawn(p, [obj, p, ops_per_proc, seed](sim::Ctx& ctx) {
      Rng rng(seed + static_cast<uint64_t>(p));
      for (int j = 0; j < ops_per_proc; ++j) {
        verify::Invocation inv =
            rng.next_bool(0.5)
                ? verify::Invocation{"WriteMax", num(rng.next_in(0, 20)), p}
                : verify::Invocation{"ReadMax", unit(), p};
        core::invoke_recorded(ctx, *obj, inv);
      }
    });
  }
  sim::RandomStrategy strategy(seed ^ 0x77);
  run.sched.run(strategy, 1000000);
  return run.history.operations();
}

void CHK_LinChecker_HistoryLength(benchmark::State& state) {
  int ops_per_proc = static_cast<int>(state.range(0));
  auto history = make_history(4, ops_per_proc, 12);
  verify::MaxRegisterSpec spec;
  uint64_t checked = 0;
  for (auto _ : state) {
    auto res = verify::check_linearizability(history, spec);
    benchmark::DoNotOptimize(res.linearizable);
    ++checked;
  }
  state.counters["history_ops"] = benchmark::Counter(static_cast<double>(history.size()));
  state.SetItemsProcessed(static_cast<int64_t>(checked));
}
BENCHMARK(CHK_LinChecker_HistoryLength)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

void CHK_StrongLinChecker_TreeSize(benchmark::State& state) {
  int write_ops = static_cast<int>(state.range(0));
  auto factory = [](sim::World& w, int n) {
    return std::make_shared<core::MaxRegisterFAA>(w, "maxreg", n);
  };
  sim::ScenarioFn scenario = [factory, write_ops](sim::SimRun& run) {
    auto obj = factory(run.world, run.n());
    for (int p = 0; p < run.n(); ++p) {
      run.sched.spawn(p, [obj, p, write_ops](sim::Ctx& ctx) {
        for (int j = 0; j < write_ops; ++j) {
          core::invoke_recorded(ctx, *obj,
                                {"WriteMax", num(p * 10 + j), p});
        }
        core::invoke_recorded(ctx, *obj, {"ReadMax", unit(), p});
      });
    }
  };
  verify::MaxRegisterSpec spec;
  uint64_t configurations = 0;
  for (auto _ : state) {
    sim::ExploreOptions opts;
    opts.max_depth = 24;
    opts.max_nodes = 400000;
    sim::ExecGraph tree = sim::explore(3, scenario, opts);
    configurations = tree.size();
    verify::StrongLinOptions slopts;
    slopts.object = "maxreg";
    auto res = verify::check_strong_linearizability(tree, spec, slopts);
    benchmark::DoNotOptimize(res.strongly_linearizable);
  }
  state.counters["configurations"] = benchmark::Counter(static_cast<double>(configurations));
}
BENCHMARK(CHK_StrongLinChecker_TreeSize)->Arg(1)->Arg(2);

}  // namespace
