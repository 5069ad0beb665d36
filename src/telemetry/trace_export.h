// Trace exporters: the c2sl-trace-v1 JSON document (what tools/trace_audit.py
// consumes), the Chrome trace-event format (chrome://tracing / Perfetto), and
// the post-mortem tail dump the assert-failure hook of util/assert.h prints.
//
// Both serialisers take the plain-data TraceDump, so they have ONE definition
// regardless of the C2SL_CAPTURE flavour — a disabled build still exports a
// well-formed document that says trace_enabled=false (the auditor treats that
// as "nothing to audit", not an error). The tail dump touches the live
// StoreTrace and is flavour-versioned: an inline no-op when disabled.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

#include "telemetry/trace.h"

namespace c2sl::tel {

/// JSON trace, schema "c2sl-trace-v1" (documented in README.md; audited by
/// tools/trace_audit.py). Timestamps are exported as nanoseconds relative to
/// the store's trace epoch (ticks * ns_per_tick), records in lane order.
std::string trace_to_json(const TraceDump& dump, std::string_view source);

/// Chrome trace-event JSON: one "X" (complete) event per record, tid = lane,
/// witness/key/result in args. Load in chrome://tracing or ui.perfetto.dev.
std::string trace_to_chrome(const TraceDump& dump, std::string_view source);

/// Records per lane in the post-mortem tail (before the pending op).
inline constexpr int kTraceTail = 64;

#if C2SL_CAPTURE

/// Prints each lane's last kTraceTail published records, then its pending
/// one (the lane's last op, awaiting its response tick), with arguments and
/// witnesses, to `out`. C2Store wires it into the assert-failure hook, so a
/// failed invariant ships the ops and linearization evidence around it.
void dump_trace_tail(std::FILE* out, const StoreTrace& trace, int max_lanes);

#else

constexpr void dump_trace_tail(std::FILE*, const StoreTrace&, int) {}

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
