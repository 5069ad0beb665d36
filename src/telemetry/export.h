// Telemetry exporter: the c2sl-metrics-v1 JSON snapshot, the one schema of
// the metrics artifact. (The post-mortem dump is the witness trace's tail:
// tel::dump_trace_tail, telemetry/trace_export.h.)
//
// The serialiser takes the plain-data MetricsSnapshot, so it has ONE
// definition regardless of the C2SL_CAPTURE flavour — a disabled build still
// exports a well-formed snapshot that says telemetry_enabled=false
// (tools/metrics_diff.py treats that as "no counters to diff", not an error).
#pragma once

#include <string>
#include <string_view>

#include "telemetry/telemetry.h"

namespace c2sl::tel {

/// JSON snapshot, schema "c2sl-metrics-v1" (documented in README.md;
/// validated and diffed by tools/metrics_diff.py). `source` names the
/// producer ("c2store_demo", ...).
std::string to_json(const MetricsSnapshot& snap, std::string_view source);

}  // namespace c2sl::tel
