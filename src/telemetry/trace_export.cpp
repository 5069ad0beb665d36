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

void print_slot(std::FILE* out, uint64_t i, const TraceSlot& s) {
  switch (s.op()) {
    case TraceSlot::kTick:
      std::fprintf(out, "    #%" PRIu64 " tick=%" PRId64 "\n", i, s.arg);
      return;
    case TraceSlot::kEpoch:
      std::fprintf(out, "    #%" PRIu64 " epoch=%" PRId64 "\n", i, s.arg);
      return;
    default:
      std::fprintf(out,
                   "    #%" PRIu64 " %s key=%" PRId32 " arg=%" PRId64
                   " result=%" PRId64 " witness=%" PRId64 "\n",
                   i, op_name(static_cast<int32_t>(s.op())), s.key, s.arg,
                   s.result, s.witness);
  }
}

}  // namespace

void dump_trace_tail(std::FILE* out, const StoreTrace& trace, int max_lanes) {
  std::fprintf(out, "c2sl trace tail (last %d slots per lane):\n", kTraceTail);
  for (int lane = 0; lane < max_lanes; ++lane) {
    const LaneTrace* lt = trace.peek_lane(lane);
    if (lt == nullptr) continue;
    std::vector<TraceSlot> tail;
    uint64_t first = lt->copy_slots(tail, kTraceTail);
    if (tail.empty()) continue;
    std::fprintf(out, "  lane %d (%" PRIu64 " slots, %" PRIu64 " dropped):\n",
                 lane, first + tail.size(), lt->dropped());
    for (size_t k = 0; k < tail.size(); ++k) {
      print_slot(out, first + k, tail[k]);
    }
  }
}

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
