// Sessions demo: dynamic join/leave of worker threads against one C2Store,
// with MORE concurrent workers than session lanes.
//
// The store is configured with `lanes` session lanes but `workers` (> lanes)
// threads serve traffic CONCURRENTLY: each worker joins by calling
// open_session() — which now BLOCKS under full-lane contention, parking on
// the registry's consensus-2 handoff queue until a leaving worker hands its
// lane over directly (FIFO-fair, no busy-spin) — binds typed refs, hammers
// them, and leaves (RAII close = direct lane handoff to the oldest waiter).
// No caller-side retry loop anywhere. The non-waiting forms,
// try_open_session() and open_session_for(), are probed once every lane is
// held.
//
// Exits non-zero on any inconsistency, so CI can run it as a smoke test.
//
//   $ ./example_c2store_sessions_demo [lanes] [workers] [ops] [--metrics]
//                                      [--trace-out FILE]
//
// --metrics additionally prints the store's c2sl-metrics-v1 JSON snapshot —
// under oversubscription the open_wait histogram and the handoff
// park/delivery counters are the interesting part.
// --trace-out FILE drains the store's linearization-witness trace after all
// workers leave and writes it as c2sl-trace-v1 JSON — under handoff churn the
// kSessionOpen/kSessionClose point events show each lane changing hands.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/c2store.h"
#include "telemetry/export.h"
#include "telemetry/trace_export.h"

using namespace c2sl;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  bool metrics = false;
  std::string trace_out;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      pos.push_back(argv[i]);
    }
  }
  int lanes = pos.size() > 0 ? std::atoi(pos[0]) : 2;
  if (lanes < 1) lanes = 1;
  if (lanes > 31) lanes = 31;
  int workers = pos.size() > 1 ? std::atoi(pos[1]) : 3 * lanes;
  if (workers < lanes) workers = lanes;
  const int ops = pos.size() > 2 ? std::atoi(pos[2]) : 2000;

  svc::C2StoreConfig cfg;
  cfg.initial_shards = 16;
  cfg.max_threads = lanes;  // workers > lanes: joins must wait their turn
  cfg.max_value = std::min(rt::lane_max(lanes), rt::JournalCodec::kMaxValue);
  cfg.tas_max_resets = rt::lane_max(lanes) - 1;  // lane-packing budget
  svc::C2Store store(cfg);

  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&store, &cfg, w, ops] {
      // Join: waits for a lane when all are held, parked on the handoff queue.
      svc::C2Session session = store.open_session();
      svc::CounterRef requests = session.counter("svc:requests");
      svc::MaxRef high_water = session.max("svc:high_water");
      for (int i = 0; i < ops; ++i) {
        requests.inc();
        if (i % 64 == w % 64) high_water.write((i + w) % (cfg.max_value + 1));
      }
      // Leave: the session destructor hands the lane to the oldest parked
      // joiner (or recycles it when no one is waiting).
      std::printf("worker %2d served %d ops on lane %d\n", w, ops, session.lane());
    });
  }
  for (auto& t : pool) t.join();

  // Joins that found every lane held parked on the handoff queue; a close
  // delivers only to a waiter that enqueued, so deliveries never exceed
  // enqueued waiters.
  expect(store.lane_handoff_deliveries() <= store.lane_handoff_enqueued(),
         "a lane was handed to a join that never waited");

  // Oversubscription probes: with every lane held, the non-waiting forms
  // report failure cleanly; a leave makes the next join immediate.
  {
    std::vector<svc::C2Session> held;
    for (int i = 0; i < cfg.max_threads; ++i) held.push_back(store.open_session());
    svc::C2Session extra = store.try_open_session();
    expect(!extra.valid(), "try_open_session must report no free lane");
    extra = store.open_session_for(std::chrono::milliseconds(1));
    expect(!extra.valid(), "a timed open must give up when every lane stays held");
    held.pop_back();  // one worker leaves...
    extra = store.try_open_session();
    expect(extra.valid(), "...and the freed lane is immediately joinable");
  }

  svc::C2Session audit = store.open_session();
  const int64_t served = audit.counter("svc:requests").read();
  const int64_t expected = static_cast<int64_t>(workers) * ops;
  std::printf(
      "total requests: %lld (expected %lld), waiters=%lld, handoffs=%lld, "
      "parks=%lld\n",
      static_cast<long long>(served), static_cast<long long>(expected),
      static_cast<long long>(store.lane_handoff_enqueued()),
      static_cast<long long>(store.lane_handoff_deliveries()),
      static_cast<long long>(store.lane_handoff_parks()));
  expect(served == expected, "every op from every worker must be counted exactly once");

  if (metrics) {
    std::printf("%s\n",
                tel::to_json(store.metrics_snapshot(), "c2store_sessions_demo")
                    .c_str());
  }

  if (!trace_out.empty()) {
    // All workers joined; the audit session below is the only writer left, so
    // the drain sees a quiescent trace (every lane's published count final).
    std::ofstream tout(trace_out);
    tout << tel::trace_to_json(store.trace_dump(), "c2store_sessions_demo")
         << "\n";
    std::printf("wrote %s\n", trace_out.c_str());
  }

  if (failures > 0) return 1;
  std::printf("ok: %d workers shared %d lanes via blocking handoff\n", workers,
              cfg.max_threads);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
