// NAT — native std::atomic constructions on real threads: throughput of the
// bounded §3/§4 variants under genuine hardware contention. (On a single-core
// host the thread counts time-slice; the numbers are functional throughput,
// not a scaling study.)
//
// The threads are google-benchmark's own (->Threads(n)): they are spawned
// once per run, after the run's Setup has built the object they share, so the
// timed region holds only the operations. The one-thread rows at the end time
// single reads and no-op writes on an uncontended line, the per-primitive
// cost behind c2bench's keyed and aggregate reads.
//
// Emits BENCH_native.json in the repo-wide c2sl-bench-v1 schema alongside the
// usual console output.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "json_reporter.h"

#include "runtime/counter_sum_digest.h"
#include "runtime/keyed_version_digest.h"
#include "runtime/native_max_register.h"
#include "runtime/native_snapshot.h"
#include "runtime/native_tas_family.h"

namespace {

using namespace c2sl;

/// The object every thread of one run shares. A run's Setup builds it before
/// google-benchmark starts the run's threads.
template <typename T>
std::unique_ptr<T> shared;

template <typename T, typename... Args>
void share(Args... args) {
  shared<T> = std::make_unique<T>(args...);
}

// Alternates write_max(j % cap) and read_max per thread on one register;
// after a lane's first cap writes its writes are no-ops, as in c2bench.
void NAT_MaxRegister(benchmark::State& state) {
  const int64_t cap = 63 / state.threads();
  auto& reg = *shared<rt::NativeMaxRegister64>;
  const int t = state.thread_index();
  int64_t j = 0;
  for (auto _ : state) {
    if (j % 2 == 0) {
      reg.write_max(t, j % cap);
    } else {
      benchmark::DoNotOptimize(reg.read_max());
    }
    ++j;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(NAT_MaxRegister)
    ->Setup([](const benchmark::State& s) {
      share<rt::NativeMaxRegister64>(s.threads(), int64_t{63 / s.threads()});
    })
    ->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void NAT_Snapshot(benchmark::State& state) {
  auto& snap = *shared<rt::NativeSnapshot64>;
  const int t = state.thread_index();
  int64_t j = 0;
  for (auto _ : state) {
    if (j % 2 == 0) {
      snap.update(t, j % 7);
    } else {
      benchmark::DoNotOptimize(snap.scan());
    }
    ++j;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(NAT_Snapshot)
    ->Setup([](const benchmark::State& s) {
      share<rt::NativeSnapshot64>(s.threads());
    })
    ->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void NAT_FetchIncrement(benchmark::State& state) {
  auto& fai = *shared<rt::NativeFetchIncrement>;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fai.fetch_and_increment());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(NAT_FetchIncrement)
    ->Setup([](const benchmark::State&) { share<rt::NativeFetchIncrement>(); })
    ->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// Every put takes fresh cells, so the run is capped at a fixed op count to
// bound the set's memory.
void NAT_Set(benchmark::State& state) {
  auto& set = *shared<rt::NativeSet>;
  const int64_t base = int64_t{state.thread_index()} << 32;
  int64_t j = 0;
  for (auto _ : state) {
    if (j % 2 == 0) {
      set.put(base + j);
    } else {
      benchmark::DoNotOptimize(set.take());
    }
    ++j;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(NAT_Set)
    ->Setup([](const benchmark::State&) { share<rt::NativeSet>(); })
    ->Threads(1)->Threads(2)->Threads(4)->Iterations(1 << 20)->UseRealTime();

// The reference comparison the paper's motivation implies: the native
// fetch&add-based readable F&I (1 instruction) vs the TAS-array construction.
void NAT_FetchAdd_Reference(benchmark::State& state) {
  auto& ctr = *shared<std::atomic<int64_t>>;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctr.fetch_add(1, std::memory_order_seq_cst));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(NAT_FetchAdd_Reference)
    ->Setup([](const benchmark::State&) { share<std::atomic<int64_t>>(int64_t{0}); })
    ->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// One thread, one op per iteration: the reads of a fetch&add word and a
// max write that changes nothing (compare NAT_FetchAdd_Reference/threads:1,
// one uncontended fetch&add).
void NAT_MaxRegister_Read(benchmark::State& state) {
  rt::NativeMaxRegister64 reg(1, 63);
  reg.write_max(0, 5);
  for (auto _ : state) benchmark::DoNotOptimize(reg.read_max());
}
BENCHMARK(NAT_MaxRegister_Read);

void NAT_MaxRegister_NoOpWrite(benchmark::State& state) {
  rt::NativeMaxRegister64 reg(1, 63);
  reg.write_max(0, 5);
  for (auto _ : state) reg.write_max(0, 3);
}
BENCHMARK(NAT_MaxRegister_NoOpWrite);

void NAT_CounterSumDigest_Read(benchmark::State& state) {
  rt::CounterSumDigest digest;
  digest.add(0);
  for (auto _ : state) benchmark::DoNotOptimize(digest.read());
}
BENCHMARK(NAT_CounterSumDigest_Read);

void NAT_KeyedVersionDigest_Version(benchmark::State& state) {
  rt::KeyedVersionDigest journal;
  journal.append(rt::KeyedVersionDigest::Kind::kCounterInc, 0, 0, 1);
  for (auto _ : state) benchmark::DoNotOptimize(journal.version());
}
BENCHMARK(NAT_KeyedVersionDigest_Version);

}  // namespace

int main(int argc, char** argv) {
  return c2bench::run_with_schema_reporter(argc, argv, "bench_native",
                                           "BENCH_native.json");
}
