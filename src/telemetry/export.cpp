#include "telemetry/export.h"

#include "util/json_writer.h"

namespace c2sl::tel {

namespace {

void hist_json(JsonWriter& w, const HistogramSnapshot& h) {
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
  JsonWriter w;
  w.begin_object();
  w.field("schema", "c2sl-metrics-v1");
  w.field("source", source);
  w.field("telemetry_enabled", snap.enabled);
  w.field("lanes", snap.lanes);
  // The sum of op_counts, from the same lane scan (exact at quiescence).
  w.field("ops_total", snap.ops_total);

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
  w.field("handoff_enqueued", snap.handoff_enqueued);
  w.field("handoff_deliveries", snap.handoff_deliveries);
  w.field("handoff_parks", snap.handoff_parks);
  w.field("handoff_revocations", snap.handoff_revocations);
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

  w.end_object();
  return w.str();
}

}  // namespace c2sl::tel
