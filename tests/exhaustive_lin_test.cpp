// Exhaustive-interleaving linearizability: for small fixed scenarios of EVERY
// §3/§4 construction, explore ALL schedules (complete execution tree) and
// check the history at every completed leaf against the sequential spec.
// Complements the random sweeps (which cover bigger configs sparsely) and the
// strong-linearizability checks (which subsume this but on the same trees —
// here the trees can be bigger because plain linearizability is cheaper).
#include <gtest/gtest.h>

#include "core/fetch_increment.h"
#include "core/max_register_faa.h"
#include "core/max_register_variants.h"
#include "core/multishot_tas.h"
#include "core/readable_tas.h"
#include "core/simple_type.h"
#include "core/sl_set.h"
#include "core/snapshot_faa.h"
#include "harness.h"
#include "verify/specs.h"

namespace c2sl {
namespace {

using verify::Invocation;

struct ExhaustiveCase {
  std::string name;
  testing::ObjectFactory factory;
  std::vector<std::vector<Invocation>> programs;
  std::shared_ptr<verify::Spec> spec;
  std::string object;
  int max_depth = 28;
  size_t max_nodes = 300000;
};

class ExhaustiveLin : public ::testing::TestWithParam<int> {
 public:
  static const std::vector<ExhaustiveCase>& cases();
};

std::vector<ExhaustiveCase> build_cases() {
  std::vector<ExhaustiveCase> out;

  out.push_back({"maxreg_faa",
                 [](sim::World& w, int n) {
                   return std::make_shared<core::MaxRegisterFAA>(w, "obj", n);
                 },
                 {{{"WriteMax", num(4), 0}, {"ReadMax", unit(), 0}},
                  {{"WriteMax", num(2), 1}},
                  {{"ReadMax", unit(), 2}}},
                 std::make_shared<verify::MaxRegisterSpec>(),
                 "obj"});

  out.push_back({"snapshot_faa",
                 [](sim::World& w, int n) {
                   return std::make_shared<core::SnapshotFAA>(w, "obj", n);
                 },
                 {{{"Update", num(1), 0}, {"Update", num(4), 0}},
                  {{"Scan", unit(), 1}},
                  {{"Update", num(2), 2}}},
                 std::make_shared<verify::SnapshotSpec>(3),
                 "obj"});

  out.push_back({"readable_tas",
                 [](sim::World& w, int) {
                   return std::make_shared<core::ReadableTAS>(w, "obj");
                 },
                 {{{"TAS", unit(), 0}},
                  {{"Read", unit(), 1}, {"TAS", unit(), 1}},
                  {{"Read", unit(), 2}}},
                 std::make_shared<verify::TasSpec>(),
                 "obj"});

  struct MtasBundle : core::ConcurrentObject {
    core::AtomicMaxRegister curr;
    core::AtomicReadableTasArray ts;
    core::MultishotTAS mtas;
    explicit MtasBundle(sim::World& w)
        : curr(w, "curr"), ts(w, "TS"), mtas("obj", curr, ts) {}
    std::string object_name() const override { return "obj"; }
    Val apply(sim::Ctx& c, const Invocation& i) override { return mtas.apply(c, i); }
  };
  out.push_back({"multishot_tas",
                 [](sim::World& w, int) { return std::make_shared<MtasBundle>(w); },
                 {{{"TAS", unit(), 0}},
                  {{"Reset", unit(), 1}},
                  {{"Read", unit(), 2}}},
                 std::make_shared<verify::TasSpec>(/*multi_shot=*/true),
                 "obj"});

  struct FaiBundle : core::ConcurrentObject {
    core::ReadableTasArray ts;
    core::FetchIncrement fai;
    explicit FaiBundle(sim::World& w) : ts(w, "M"), fai("obj", ts) {}
    std::string object_name() const override { return "obj"; }
    Val apply(sim::Ctx& c, const Invocation& i) override { return fai.apply(c, i); }
  };
  out.push_back({"fetch_increment",
                 [](sim::World& w, int) { return std::make_shared<FaiBundle>(w); },
                 {{{"FAI", unit(), 0}}, {{"FAI", unit(), 1}}, {{"Read", unit(), 2}}},
                 std::make_shared<verify::FaiSpec>(),
                 "obj",
                 /*max_depth=*/30,
                 /*max_nodes=*/600000});

  struct SetBundle : core::ConcurrentObject {
    core::AtomicReadableTasArray ts;
    core::FetchIncrement fai;
    core::SLSet set;
    explicit SetBundle(sim::World& w)
        : ts(w, "M"), fai("Max", ts), set(w, "obj", fai) {}
    std::string object_name() const override { return "obj"; }
    Val apply(sim::Ctx& c, const Invocation& i) override { return set.apply(c, i); }
  };
  out.push_back({"sl_set",
                 [](sim::World& w, int) { return std::make_shared<SetBundle>(w); },
                 {{{"Put", num(7), 0}}, {{"Take", unit(), 1}}, {}},
                 std::make_shared<verify::SetSpec>(),
                 "obj",
                 /*max_depth=*/30,
                 /*max_nodes=*/600000});

  static verify::CounterSpec counter_spec;
  out.push_back({"simple_type_counter",
                 [](sim::World& w, int n) {
                   return std::shared_ptr<core::ConcurrentObject>(
                       core::make_counter(w, "obj", n, counter_spec));
                 },
                 {{{"Inc", unit(), 0}}, {{"Read", unit(), 1}}, {}},
                 std::make_shared<verify::CounterSpec>(),
                 "obj"});

  return out;
}

const std::vector<ExhaustiveCase>& ExhaustiveLin::cases() {
  static const std::vector<ExhaustiveCase> all = build_cases();
  return all;
}

TEST_P(ExhaustiveLin, AllLeavesLinearizable) {
  const ExhaustiveCase& c = cases()[static_cast<size_t>(GetParam())];
  int n = static_cast<int>(c.programs.size());
  auto scenario = testing::fixed_scenario(c.factory, c.programs);
  sim::ExploreOptions opts;
  opts.max_depth = c.max_depth;
  opts.max_nodes = c.max_nodes;
  sim::ExecGraph tree = sim::explore(n, scenario, opts);
  ASSERT_FALSE(tree.budget_exhausted) << c.name << ": raise max_nodes";

  int leaves = 0;
  tree.for_each_path([&](const sim::ExecNode& node, const std::vector<sim::Event>& history) {
    if (!node.edges.empty() || !node.all_done) return;
    ++leaves;
    auto ops = verify::operations_from_events(history);
    auto lin = verify::check_object_linearizability(ops, c.object, *c.spec);
    ASSERT_TRUE(lin.decided) << c.name;
    ASSERT_TRUE(lin.linearizable)
        << c.name << " leaf " << node.id << "\n"
        << lin.explanation;
  });
  EXPECT_GT(leaves, 1) << c.name;
  RecordProperty("configurations", static_cast<int>(tree.size()));
}

INSTANTIATE_TEST_SUITE_P(AllObjects, ExhaustiveLin, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return ExhaustiveLin::cases()[static_cast<size_t>(
                                                             info.param)]
                               .name;
                         });

}  // namespace
}  // namespace c2sl
