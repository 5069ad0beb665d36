// Why linearizability is not enough — the paper's motivation, run as code.
//
// Two wait-free, linearizable max registers:
//   * core::MaxRegisterFAA    (§3.1, from fetch&add)  — strongly linearizable;
//   * core::CollectMaxRegister (from per-process registers) — NOT strongly
//     linearizable (Denysyuk–Woelfel impossibility).
//
// The bounded model checker explores EVERY schedule of a small scenario and
// either produces a prefix-closed linearization function or a concrete
// conflict: a reachable prefix none of whose linearizations survives all
// futures — exactly the leverage a strong adversary uses against randomized
// programs (§1).
//
//   $ ./example_strong_vs_linearizable
#include <cstdio>

#include "core/max_register_faa.h"
#include "core/max_register_variants.h"
#include "sim/explorer.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

using namespace c2sl;

namespace {

sim::ScenarioFn scenario_for(bool use_faa) {
  return [use_faa](sim::SimRun& run) {
    std::shared_ptr<core::ConcurrentObject> obj;
    if (use_faa) {
      obj = std::make_shared<core::MaxRegisterFAA>(run.world, "maxreg", run.n());
    } else {
      obj = std::make_shared<core::CollectMaxRegister>(run.world, "maxreg", run.n());
    }
    std::vector<std::vector<verify::Invocation>> programs = {
        {{"WriteMax", num(2), 0}},
        {{"WriteMax", num(1), 1}},
        {{"ReadMax", unit(), 2}, {"ReadMax", unit(), 2}}};
    for (int p = 0; p < run.n(); ++p) {
      auto invs = programs[static_cast<size_t>(p)];
      run.sched.spawn(p, [obj, invs, p](sim::Ctx& ctx) {
        for (verify::Invocation inv : invs) {
          inv.proc = p;
          core::invoke_recorded(ctx, *obj, inv);
        }
      });
    }
  };
}

void check_and_report(const char* name, bool use_faa) {
  sim::ExploreOptions opts;
  opts.max_depth = 24;
  opts.max_nodes = 800000;
  sim::ExecGraph tree = sim::explore(3, scenario_for(use_faa), opts);

  verify::MaxRegisterSpec spec;
  verify::StrongLinOptions slopts;
  slopts.object = "maxreg";
  slopts.max_search_nodes = 30'000'000;
  auto res = verify::check_strong_linearizability(tree, spec, slopts);

  std::printf("%-28s explored %zu configurations\n", name, tree.size());
  if (!res.decided) {
    std::printf("  verdict: UNDECIDED (budget)\n\n");
    return;
  }
  if (res.strongly_linearizable) {
    std::printf("  verdict: STRONGLY LINEARIZABLE on every bounded execution\n\n");
  } else {
    std::printf("  verdict: NOT strongly linearizable.\n  %s\n",
                res.report.c_str());
  }
}

}  // namespace

int main() {
  std::printf("Scenario: p0: WriteMax(2); p1: WriteMax(1); p2: ReadMax, ReadMax\n");
  std::printf("Both implementations are wait-free and linearizable. Only one\n");
  std::printf("admits a prefix-closed linearization function.\n\n");
  check_and_report("MaxRegisterFAA (Thm 1):", /*use_faa=*/true);
  check_and_report("CollectMaxRegister:", /*use_faa=*/false);
  return 0;
}
