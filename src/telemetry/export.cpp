#include "telemetry/export.h"

#include <cinttypes>
#include <cstdio>

#include "workload/json_writer.h"

namespace c2sl::tel {

namespace {

void hist_json(wl::JsonWriter& w, const HistogramSnapshot& h) {
  w.begin_object();
  w.field("count", h.total());
  w.field("p50_upper_ns", h.quantile_upper_ns(0.50));
  w.field("p90_upper_ns", h.quantile_upper_ns(0.90));
  w.field("p99_upper_ns", h.quantile_upper_ns(0.99));
  w.field("max_upper_ns", h.max_upper_ns());
  w.key("buckets");
  w.begin_array();
  for (int b = 0; b < kHistBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    w.begin_array();
    w.value(hist_bucket_upper(b));
    w.value(h.counts[b]);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string to_json(const MetricsSnapshot& snap, std::string_view source) {
  wl::JsonWriter w;
  w.begin_object();
  w.field("schema", "c2sl-metrics-v1");
  w.field("source", source);
  w.field("telemetry_enabled", snap.enabled);
  w.field("lanes", snap.lanes);
  // Both totals come from the same lane scan (exact at quiescence); the pair
  // stays so c2sl-metrics-v1 documents keep their shape.
  w.field("ops_total", snap.ops_total);
  w.field("ops_total_scan", snap.ops_total_scan);

  w.key("op_counts");
  w.begin_object();
  for (int k = 0; k < kTelOpCount; ++k) {
    w.field(to_string(static_cast<TelOp>(k)), snap.op_counts[k]);
  }
  w.end_object();

  w.key("op_latency_ns");
  w.begin_object();
  for (int k = 0; k < kTelOpCount; ++k) {
    if (snap.op_latency[k].total() == 0) continue;
    w.key(to_string(static_cast<TelOp>(k)));
    hist_json(w, snap.op_latency[k]);
  }
  w.end_object();

  w.key("open_wait_ns");
  hist_json(w, snap.open_wait);

  w.key("session");
  w.begin_object();
  w.field("lane_tickets", snap.lane_tickets);
  w.field("handoff_enqueued", snap.handoff_enqueued);
  w.field("handoff_deliveries", snap.handoff_deliveries);
  w.field("handoff_parks", snap.handoff_parks);
  w.field("handoff_revocations", snap.handoff_revocations);
  w.field("lane_counter_adds", snap.lane_counter_adds);
  w.end_object();

  w.key("events");
  w.begin_object();
  for (int e = 0; e < kTelEventCount; ++e) {
    w.field(to_string(static_cast<TelEvent>(e)), snap.events[e]);
  }
  w.end_object();

  // Per-shard heat: keyed ops per routing bucket (lane-scan, racy like
  // op_counts) plus the max-over-mean skew ratio. Aggregate ops carry no
  // shard, so the bucket sum is <= ops_total (metrics_diff checks this).
  w.key("shard_ops");
  w.begin_array();
  for (uint64_t c : snap.shard_ops) w.value(c);
  w.end_array();
  w.field("shard_imbalance", shard_imbalance(snap));

  if (snap.has_prim_profile) {
    w.key("prim_profile");
    w.begin_object();
    for (int k = 0; k < kTelOpCount; ++k) {
      const PrimProfile& p = snap.prim_profile[k];
      if (p.ops <= 0) continue;
      w.key(to_string(static_cast<TelOp>(k)));
      w.begin_object();
      w.field("faa", p.faa);
      w.field("tas", p.tas);
      w.field("swap", p.swap);
      w.field("ops", p.ops);
      w.end_object();
    }
    w.end_object();
  }

  w.end_object();
  return w.str();
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  char buf[256];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    out += '\n';
  };

  line("# HELP c2sl_telemetry_enabled 1 when the store was built with "
       "C2SL_CAPTURE=1.");
  line("# TYPE c2sl_telemetry_enabled gauge");
  line("c2sl_telemetry_enabled %d", snap.enabled ? 1 : 0);
  if (!snap.enabled) return out;

  line("# HELP c2sl_ops_total Instrumented-op count (per-lane scan; exact "
       "at quiescence).");
  line("# TYPE c2sl_ops_total counter");
  line("c2sl_ops_total %" PRId64, snap.ops_total);
  line("# HELP c2sl_ops_scan The same per-lane scan count (kept for "
       "dashboards that read it).");
  line("# TYPE c2sl_ops_scan counter");
  line("c2sl_ops_scan %" PRIu64, snap.ops_total_scan);

  line("# TYPE c2sl_op_count counter");
  for (int k = 0; k < kTelOpCount; ++k) {
    line("c2sl_op_count{op=\"%s\"} %" PRIu64, to_string(static_cast<TelOp>(k)),
         snap.op_counts[k]);
  }

  line("# HELP c2sl_op_latency_ns Sampled nearest-rank latency quantile "
       "upper bounds (log2 buckets).");
  line("# TYPE c2sl_op_latency_ns gauge");
  static constexpr double kQuantiles[] = {0.50, 0.90, 0.99};
  for (int k = 0; k < kTelOpCount; ++k) {
    const HistogramSnapshot& h = snap.op_latency[k];
    if (h.total() == 0) continue;
    for (double q : kQuantiles) {
      line("c2sl_op_latency_ns{op=\"%s\",quantile=\"%g\"} %" PRId64,
           to_string(static_cast<TelOp>(k)), q, h.quantile_upper_ns(q));
    }
  }

  line("# TYPE c2sl_open_wait_ns gauge");
  for (double q : kQuantiles) {
    line("c2sl_open_wait_ns{quantile=\"%g\"} %" PRId64, q,
         snap.open_wait.quantile_upper_ns(q));
  }
  line("# TYPE c2sl_open_wait_count counter");
  line("c2sl_open_wait_count %" PRIu64, snap.open_wait.total());

  line("# TYPE c2sl_lane_tickets_total counter");
  line("c2sl_lane_tickets_total %" PRId64, snap.lane_tickets);
  line("# TYPE c2sl_handoff_enqueued_total counter");
  line("c2sl_handoff_enqueued_total %" PRId64, snap.handoff_enqueued);
  line("# TYPE c2sl_handoff_deliveries_total counter");
  line("c2sl_handoff_deliveries_total %" PRId64, snap.handoff_deliveries);
  line("# TYPE c2sl_handoff_parks_total counter");
  line("c2sl_handoff_parks_total %" PRId64, snap.handoff_parks);
  line("# TYPE c2sl_handoff_revocations_total counter");
  line("c2sl_handoff_revocations_total %" PRId64, snap.handoff_revocations);
  line("# TYPE c2sl_lane_counter_adds_total counter");
  line("c2sl_lane_counter_adds_total %" PRId64, snap.lane_counter_adds);

  line("# HELP c2sl_shard_ops Keyed ops routed to each shard bucket "
       "(racy lane-scan heat diagnostic).");
  line("# TYPE c2sl_shard_ops counter");
  for (size_t b = 0; b < snap.shard_ops.size(); ++b) {
    line("c2sl_shard_ops{shard=\"%zu\"} %" PRIu64, b, snap.shard_ops[b]);
  }
  line("# HELP c2sl_shard_imbalance Max-over-mean ratio of per-shard op "
       "counts (1.0 = balanced).");
  line("# TYPE c2sl_shard_imbalance gauge");
  line("c2sl_shard_imbalance %g", shard_imbalance(snap));

  for (int e = 0; e < kTelEventCount; ++e) {
    line("# TYPE c2sl_%s_total counter", to_string(static_cast<TelEvent>(e)));
    line("c2sl_%s_total %" PRIu64, to_string(static_cast<TelEvent>(e)),
         snap.events[e]);
  }
  return out;
}

}  // namespace c2sl::tel
