// Tooling demo: export an execution graph to Graphviz DOT, highlighting the
// strong-linearizability conflict node the checker found. Applied to the
// Herlihy-Wing queue (the paper's §5 exhibit).
//
//   $ ./example_export_witness_tree > hw_witness.dot && dot -Tsvg hw_witness.dot -o hw.svg
#include <cstdio>

#include "baselines/herlihy_wing_queue.h"
#include "sim/dot.h"
#include "sim/explorer.h"
#include "verify/specs.h"
#include "verify/strong_lin.h"

using namespace c2sl;

int main() {
  sim::ScenarioFn scenario = [](sim::SimRun& run) {
    auto q = std::make_shared<baselines::HerlihyWingQueue>(run.world, "queue");
    std::vector<std::vector<verify::Invocation>> programs = {
        {{"Enq", num(10), 0}}, {{"Enq", num(20), 1}}, {{"Deq", unit(), 2}}};
    for (int p = 0; p < run.n(); ++p) {
      auto invs = programs[static_cast<size_t>(p)];
      run.sched.spawn(p, [q, invs, p](sim::Ctx& ctx) {
        for (verify::Invocation inv : invs) {
          inv.proc = p;
          core::invoke_recorded(ctx, *q, inv);
        }
      });
    }
  };

  // A shallow tree keeps the rendering readable; the conflict is found within
  // depth 12 (see tests/strong_lin_negative_test.cpp for the full check).
  sim::ExploreOptions opts;
  opts.max_depth = 8;
  opts.max_nodes = 4000;
  sim::ExecGraph tree = sim::explore(3, scenario, opts);

  verify::QueueSpec spec;
  verify::StrongLinOptions slopts;
  slopts.object = "queue";
  auto res = verify::check_strong_linearizability(tree, spec, slopts);

  sim::DotOptions dot_opts;
  dot_opts.highlight_node = res.witness_node;
  std::fputs(sim::to_dot(tree, dot_opts).c_str(), stdout);

  std::fprintf(stderr, "configurations: %zu; strongly linearizable at this depth: %s\n",
               tree.size(),
               res.decided ? (res.strongly_linearizable ? "yes" : "NO") : "undecided");
  return 0;
}
