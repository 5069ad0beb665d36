#include "telemetry/trace_export.h"

#include <cinttypes>
#include <cstdio>

#include "util/json_writer.h"

namespace c2sl::tel {

namespace {

/// Tick -> nanoseconds since the store's trace epoch.
int64_t to_ns(const TraceDump& d, int64_t ticks) {
  return static_cast<int64_t>(static_cast<double>(ticks - d.tick_base) *
                              d.ns_per_tick);
}

const char* op_name(int32_t code) {
  if (code < 0 || code >= kTraceOpCount) return "unknown_op";
  return to_string(static_cast<TraceOp>(code));
}

}  // namespace

std::string trace_to_json(const TraceDump& dump, std::string_view source) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "c2sl-trace-v1");
  w.field("source", source);
  w.field("trace_enabled", dump.enabled);
  w.field("initial_shards", dump.initial_shards);
  w.field("ns_per_tick", dump.ns_per_tick);
  uint64_t records_total = 0;
  uint64_t dropped_total = 0;
  for (const LaneTraceDump& l : dump.lanes) {
    records_total += l.records.size();
    dropped_total += l.dropped;
  }
  w.field("records_total", records_total);
  w.field("dropped_total", dropped_total);
  w.key("lanes");
  w.begin_array();
  for (const LaneTraceDump& l : dump.lanes) {
    w.begin_object();
    w.field("lane", l.lane);
    w.field("dropped", l.dropped);
    w.key("records");
    w.begin_array();
    for (const TraceRecord& r : l.records) {
      w.begin_object();
      w.field("op", op_name(r.op));
      if (r.key >= 0) w.field("key", r.key);
      if (r.key_b >= 0) w.field("key_b", static_cast<int64_t>(r.key_b));
      w.field("arg", r.arg);
      w.field("result", r.result);
      if (r.witness >= 0) w.field("witness", r.witness);
      w.field("t0_ns", to_ns(dump, r.t0));
      w.field("t1_ns", to_ns(dump, r.t1));
      if (r.epoch >= 0) w.field("epoch", r.epoch);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

#if C2SL_CAPTURE

namespace {

void print_record(std::FILE* out, uint64_t i, const TraceRecord& r,
                  const char* note) {
  std::fprintf(out,
               "    #%" PRIu64 " %s key=%" PRId64 " arg=%" PRId64
               " result=%" PRId64 " witness=%" PRId64 "%s\n",
               i, op_name(r.op), r.key, r.arg, r.result, r.witness, note);
}

}  // namespace

void dump_trace_tail(std::FILE* out, const StoreTrace& trace, int max_lanes) {
  std::fprintf(out,
               "c2sl trace tail (last %d records per lane, then the pending "
               "op):\n",
               kTraceTail);
  for (int lane = 0; lane < max_lanes; ++lane) {
    const LaneTrace* lt = trace.peek_lane(lane);
    if (lt == nullptr) continue;
    LaneTraceDump ld;
    uint64_t first = lt->drain_into(ld, kTraceTail);
    TraceRecord pending;
    int64_t pending_at = lt->pending(pending);
    if (ld.records.empty() && pending_at < 0) continue;
    std::fprintf(out, "  lane %d (%" PRIu64 " records, %" PRIu64
                      " dropped):\n",
                 lane, first + ld.records.size(), ld.dropped);
    for (size_t k = 0; k < ld.records.size(); ++k) {
      print_record(out, first + k, ld.records[k], "");
    }
    if (pending_at >= 0) {
      print_record(out, static_cast<uint64_t>(pending_at), pending,
                   " (pending)");
    }
  }
}

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
