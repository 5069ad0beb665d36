// The cumulative per-layer ledger of the traced run.
//
// Keyed inc, write_max, counter read and max read are rebuilt one layer at a
// time from the public runtime and telemetry classes, on the workload's key
// shape (its key distribution over its final shard count), at 1 thread and
// at the workload's thread count:
//
//   shard       rt::NativeFetchIncrement / rt::NativeMaxRegister64
//   epoch       + RoutingEpoch::stamp_relaxed (revalidate) and stamp (settle)
//   digest      + CounterSumDigest::add / the max digest         (writes only)
//   journal     + KeyedVersionDigest::append                      (writes only)
//   telemetry   + tel::OpScope
//   trace       + tel::TraceScope
//   store       the real CounterRef / MaxRef call
//
// A layer's cost is the difference between adjacent rows. Each row also
// records the primitive counts (tel::this_thread_prims) it issued per op.
#pragma once

#include <string>
#include <vector>

#include "stream.h"

namespace c2bench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Runs the ledger on `spec`'s key shape and returns its `ledger.*`,
/// `prim.*`, `runtime.*` and `telemetry.*_ns` metrics (the `.t1`/`.tN`
/// suffix names the thread count).
std::vector<Metric> run_ledger(const Spec& spec);

/// Median milliseconds of one C2Session::resize doubling `spec`'s initial
/// shard count, on a fresh store preloaded from `spec`'s key distribution.
double resize_probe_ms(const Spec& spec);

}  // namespace c2bench
