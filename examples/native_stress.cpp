// Native quickstart: the bounded 64-bit variants of the paper's constructions
// on REAL std::thread concurrency (std::atomic exchange == test&set,
// fetch_add == fetch&add; no compare&swap anywhere), with a post-hoc
// linearizability check of a sampled window.
//
//   $ ./example_native_stress [threads] [ops_per_thread]
#include <cstdio>
#include <cstdlib>
#include <set>

#include "runtime/native_max_register.h"
#include "runtime/native_snapshot.h"
#include "runtime/native_tas_family.h"
#include "runtime/stress.h"
#include "util/rng.h"
#include "verify/lin_checker.h"
#include "verify/specs.h"

using namespace c2sl;

int main(int argc, char** argv) {
  int threads = argc > 1 ? std::atoi(argv[1]) : 4;
  int ops = argc > 2 ? std::atoi(argv[2]) : 2000;

  // --- fetch&increment from test&set (Thm 9), full volume ------------------
  rt::NativeFetchIncrement fai;
  auto t0 = std::chrono::steady_clock::now();
  auto history = rt::run_stress(threads, ops, [&](int, int) {
    rt::TimedOp op;
    op.name = "FAI";
    op.resp = fai.fetch_and_increment();
    return op;
  });
  auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::set<int64_t> values;
  for (const auto& op : history) values.insert(op.resp);
  bool dense = values.size() == history.size() &&
               *values.rbegin() == static_cast<int64_t>(history.size()) - 1;
  std::printf("fetch&increment from test&set: %zu ops on %d threads in %.3fs (%.0f ops/s)\n",
              history.size(), threads, dt, static_cast<double>(history.size()) / dt);
  std::printf("  all values distinct and dense 0..%zu: %s\n", history.size() - 1,
              dense ? "YES" : "NO");

  // --- max register from fetch&add (Thm 1, bounded lanes), checked window --
  rt::NativeMaxRegister64 reg(3, 10);
  Rng rng(7);
  std::vector<Rng> rngs;
  for (int t = 0; t < 3; ++t) rngs.emplace_back(100 + t);
  auto window = rt::run_stress(3, 5, [&](int t, int) {
    rt::TimedOp op;
    if (rngs[static_cast<size_t>(t)].next_bool(0.5)) {
      op.name = "WriteMax";
      op.arg = rngs[static_cast<size_t>(t)].next_in(0, 10);
      reg.write_max(t, op.arg);
    } else {
      op.name = "ReadMax";
      op.resp = reg.read_max();
    }
    return op;
  });
  std::vector<sim::OpRecord> records;
  for (size_t i = 0; i < window.size(); ++i) {
    sim::OpRecord r;
    r.id = static_cast<sim::OpId>(i);
    r.proc = window[i].thread;
    r.object = "maxreg";
    r.name = window[i].name;
    r.args = num(window[i].arg);
    r.complete = true;
    r.resp = window[i].name == "ReadMax" ? num(window[i].resp) : unit();
    r.inv_seq = window[i].inv_seq;
    r.resp_seq = window[i].resp_seq;
    records.push_back(std::move(r));
  }
  verify::MaxRegisterSpec spec;
  auto lin = verify::check_linearizability(records, spec);
  std::printf("max register from fetch&add: 15-op real-thread window linearizable: %s\n",
              lin.linearizable ? "YES" : "NO");

  // --- snapshot from fetch&add (Thm 2, bounded lanes) ----------------------
  rt::NativeSnapshot64 snap(threads <= 8 ? threads : 8);
  auto snap_hist = rt::run_stress(threads <= 8 ? threads : 8, 1000, [&](int t, int j) {
    rt::TimedOp op;
    if (j % 2 == 0) {
      snap.update(t, j % 15);
    } else {
      auto view = snap.scan();
      op.resp = view[static_cast<size_t>(t)];
    }
    return op;
  });
  std::printf("snapshot from fetch&add: %zu real-thread ops completed\n",
              snap_hist.size());
  return dense && lin.linearizable ? 0 : 1;
}
