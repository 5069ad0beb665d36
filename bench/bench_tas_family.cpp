// T5/T6/T9/T10 — the §4 family: readable test&set, the three multi-shot
// test&set backends (Thm 6 atomic bases, Cor 7 FAA max register, the
// registers-only collect max register), fetch&increment one-shot vs
// multi-shot, and the Algorithm 2 set under different put/take mixes.
//
// Emits BENCH_tas_family.json in the repo-wide c2sl-bench-v1 schema alongside
// the usual console output (`--out=PATH` overrides the artifact path).
//
// NATIVE F&I (`--benchmark_filter=NativeFai`): the same binary also registers
// benchmarks of the Thm 9 fetch&increment read and increment paths of the
// shipped rt::NativeFetchIncrement (exponential search from the certified
// frontier word, O(1) at a current frontier) at three prefilled depths, and
// `NativeFaiIncContended`: 4 threads incrementing one shared object.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "json_reporter.h"

#include "core/fetch_increment.h"
#include "core/max_register_faa.h"
#include "core/max_register_variants.h"
#include "core/multishot_tas.h"
#include "core/readable_tas.h"
#include "core/sl_set.h"
#include "runtime/native_tas_family.h"
#include "sim/sim_run.h"
#include "sim/strategy.h"
#include "util/rng.h"

namespace {

using namespace c2sl;

struct Stats {
  uint64_t ops = 0;
  uint64_t steps = 0;
};

void report(benchmark::State& state, const Stats& s) {
  state.counters["steps_per_op"] = benchmark::Counter(
      static_cast<double>(s.steps) / static_cast<double>(std::max<uint64_t>(s.ops, 1)));
  state.SetItemsProcessed(static_cast<int64_t>(s.ops));
}

void T5_ReadableTAS(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    core::ReadableTAS obj(run.world, "t");
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, p, seed, &total](sim::Ctx& ctx) {
        Rng rng(seed + static_cast<uint64_t>(p) * 101);
        for (int j = 0; j < 25; ++j) {
          if (rng.next_bool(0.3)) {
            obj.test_and_set(ctx);
          } else {
            obj.read(ctx);
          }
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  report(state, total);
}
BENCHMARK(T5_ReadableTAS)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

enum class MtasBackend { kAtomic, kCor7, kCollect };

void run_mtas(benchmark::State& state, MtasBackend backend) {
  int n = static_cast<int>(state.range(0));
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    std::unique_ptr<core::MaxRegisterIface> curr;
    std::unique_ptr<core::ReadableTasArrayIface> ts;
    switch (backend) {
      case MtasBackend::kAtomic:
        curr = std::make_unique<core::AtomicMaxRegister>(run.world, "curr");
        ts = std::make_unique<core::AtomicReadableTasArray>(run.world, "TS");
        break;
      case MtasBackend::kCor7:
        curr = std::make_unique<core::MaxRegisterFAA>(run.world, "curr", n);
        ts = std::make_unique<core::ReadableTasArray>(run.world, "TS");
        break;
      case MtasBackend::kCollect:
        curr = std::make_unique<core::CollectMaxRegister>(run.world, "curr", n);
        ts = std::make_unique<core::ReadableTasArray>(run.world, "TS");
        break;
    }
    core::MultishotTAS obj("mt", *curr, *ts);
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, p, seed, &total](sim::Ctx& ctx) {
        Rng rng(seed + static_cast<uint64_t>(p) * 211);
        for (int j = 0; j < 15; ++j) {
          uint64_t r = rng.next_below(10);
          if (r < 4) {
            obj.test_and_set(ctx);
          } else if (r < 7) {
            obj.read(ctx);
          } else {
            obj.reset(ctx);
          }
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  report(state, total);
}

void T6_MultishotTAS_AtomicBases(benchmark::State& s) { run_mtas(s, MtasBackend::kAtomic); }
void T6_MultishotTAS_Cor7_FAA(benchmark::State& s) { run_mtas(s, MtasBackend::kCor7); }
void T6_MultishotTAS_CollectMax(benchmark::State& s) { run_mtas(s, MtasBackend::kCollect); }
BENCHMARK(T6_MultishotTAS_AtomicBases)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(T6_MultishotTAS_Cor7_FAA)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(T6_MultishotTAS_CollectMax)->Arg(2)->Arg(4)->Arg(8);

void T9_FetchIncrement(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool one_shot = state.range(1) == 1;
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    core::ReadableTasArray ts(run.world, "M");
    core::FetchIncrement obj("f", ts, one_shot);
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, one_shot, &total](sim::Ctx& ctx) {
        int reps = one_shot ? 1 : 10;
        for (int j = 0; j < reps; ++j) {
          obj.fetch_and_increment(ctx);
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  state.SetLabel(one_shot ? "one_shot(wait-free)" : "multi_shot(lock-free)");
  report(state, total);
}
BENCHMARK(T9_FetchIncrement)->Args({2, 0})->Args({4, 0})->Args({8, 0})->Args({4, 1})->Args({8, 1});

void T10_Set(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  double put_prob = static_cast<double>(state.range(1)) / 100.0;
  Stats total;
  uint64_t seed = 1;
  for (auto _ : state) {
    sim::SimRun run(n);
    core::ReadableTasArray fai_ts(run.world, "MaxM");
    core::FetchIncrement fai("Max", fai_ts);
    core::SLSet obj(run.world, "set", fai);
    for (int p = 0; p < n; ++p) {
      run.sched.spawn(p, [&obj, p, put_prob, seed, &total](sim::Ctx& ctx) {
        Rng rng(seed + static_cast<uint64_t>(p) * 401);
        for (int j = 0; j < 10; ++j) {
          if (rng.next_bool(put_prob)) {
            obj.put(ctx, p * 1000 + j);
          } else {
            benchmark::DoNotOptimize(obj.take(ctx));
          }
          ++total.ops;
        }
      });
    }
    sim::RandomStrategy strategy(seed++);
    total.steps += run.sched.run(strategy, 100000000ULL).steps;
  }
  state.SetLabel("put%=" + std::to_string(static_cast<int>(put_prob * 100)));
  report(state, total);
}
BENCHMARK(T10_Set)->Args({2, 70})->Args({4, 70})->Args({4, 30})->Args({8, 50});

// --- native F&I read/increment paths (Thm 9) ---------------------------------

void run_fai_read(benchmark::State& state, rt::NativeFetchIncrement& fai,
                  int64_t value) {
  for (int64_t i = 0; i < value; ++i) fai.fetch_and_increment();  // untimed prefill
  uint64_t ops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fai.read());
    ++ops;
  }
  state.counters["throughput_ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}

void run_fai_inc(benchmark::State& state, rt::NativeFetchIncrement& fai,
                 int64_t value) {
  for (int64_t i = 0; i < value; ++i) fai.fetch_and_increment();  // untimed prefill
  uint64_t ops = 0;
  for (auto _ : state) {
    // Each increment starts at the certified frontier, not at cell 0.
    benchmark::DoNotOptimize(fai.fetch_and_increment());
    ++ops;
  }
  state.counters["throughput_ops_per_s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
}

// One object shared by every thread of a ->Threads(n) run: thread 0 builds it
// before the timed loop and frees it after, and google-benchmark's start and
// stop barriers order both against the other threads' loops.
std::unique_ptr<rt::NativeFetchIncrement> g_shared_fai;

void run_fai_inc_contended(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_shared_fai = std::make_unique<rt::NativeFetchIncrement>();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_shared_fai->fetch_and_increment());
  }
  if (state.thread_index() == 0) g_shared_fai.reset();
}

void register_native_fai() {
  // Fixed iteration counts keep run cost deterministic (no min-time hunting).
  const int64_t kValues[] = {1024, 16384, 131072};
  const int kReadIters = 2000;
  const int kIncIters = 2000;
  for (int64_t v : kValues) {
    std::string read_name = "NativeFaiRead/" + std::to_string(v);
    std::string inc_name = "NativeFaiInc/" + std::to_string(v);
    benchmark::RegisterBenchmark(read_name.c_str(), [v](benchmark::State& s) {
      rt::NativeFetchIncrement fai;
      run_fai_read(s, fai, v);
    })->Iterations(kReadIters);
    benchmark::RegisterBenchmark(inc_name.c_str(), [v](benchmark::State& s) {
      rt::NativeFetchIncrement fai;
      run_fai_inc(s, fai, v);
    })->Iterations(kIncIters);
  }
  // Contended: 4 threads on one object, per-thread wall time per inc.
  benchmark::RegisterBenchmark("NativeFaiIncContended", run_fai_inc_contended)
      ->Threads(4)
      ->Iterations(1 << 18)
      ->UseRealTime();
}

}  // namespace

int main(int argc, char** argv) {
  register_native_fai();
  return c2bench::run_with_schema_reporter(argc, argv, "bench_tas_family",
                                           "BENCH_tas_family.json");
}
