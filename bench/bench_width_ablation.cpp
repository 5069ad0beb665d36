// ABL-W — the §6 open-problem ablation: wide (BigInt) vs narrow (64-bit)
// fetch&add registers for the max register construction. The paper notes its
// constructions "store extremely large values in a single variable" and asks
// for O(log n)-bit alternatives; this bench quantifies what width costs.
// The narrow register is the runtime's binary-lane one: n lanes of 64/n bits
// each in one word, the max over the lanes read from one load, so it runs the
// wide rows' ranges at n = 4 (up to 2^16 - 1) in n * (64/n) = 64 bits, where
// the paper's unary lanes need n * max_value bits. Expected shape: the native
// 64-bit variant is orders of magnitude faster at a fixed 64 bits; the BigInt
// variant's cost and width grow with the range.
#include <benchmark/benchmark.h>

#include "core/max_register_faa.h"
#include "runtime/native_max_register.h"
#include "sim/sim_run.h"
#include "util/rng.h"

namespace {

using namespace c2sl;

// Sequential single-thread cost of the wide (BigInt, simulated world, solo
// context => no scheduling overhead) max register.
void ABLW_Wide_BigInt(benchmark::State& state) {
  int n = 4;
  int64_t range = state.range(0);
  sim::World world;
  core::MaxRegisterFAA reg(world, "m", n);
  sim::Ctx solo;
  solo.world = &world;
  Rng rng(5);
  uint64_t ops = 0;
  for (auto _ : state) {
    solo.self = static_cast<int>(rng.next_below(static_cast<uint64_t>(n)));
    if (rng.next_bool(0.5)) {
      reg.write_max(solo, rng.next_in(0, range));
    } else {
      benchmark::DoNotOptimize(reg.read_max(solo));
    }
    ++ops;
  }
  state.counters["register_bits"] =
      benchmark::Counter(static_cast<double>(reg.register_bits(solo)));
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(ABLW_Wide_BigInt)->Arg(15)->Arg(255)->Arg(4095)->Arg(65535);

// The same register on a single 64-bit word (narrow fetch&add): binary lanes,
// feasible while max_value <= rt::lane_max(n).
void ABLW_Narrow_64bit(benchmark::State& state) {
  int n = 4;
  int64_t range = state.range(0);
  rt::NativeMaxRegister64 reg(n, range);
  Rng rng(5);
  uint64_t ops = 0;
  for (auto _ : state) {
    int proc = static_cast<int>(rng.next_below(static_cast<uint64_t>(n)));
    if (rng.next_bool(0.5)) {
      reg.write_max(proc, rng.next_in(0, range));
    } else {
      benchmark::DoNotOptimize(reg.read_max());
    }
    ++ops;
  }
  state.counters["register_bits"] = benchmark::Counter(static_cast<double>(n * (64 / n)));
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(ABLW_Narrow_64bit)->Arg(15)->Arg(255)->Arg(4095)->Arg(65535);

}  // namespace
