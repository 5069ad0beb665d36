// Trace exporters: the c2sl-trace-v1 JSON document (what tools/trace_audit.py
// consumes) and the post-mortem tail dump the assert-failure hook of
// util/assert.h prints.
//
// The serialiser takes the plain-data TraceDump, so it has ONE definition
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

/// Slots per lane in the post-mortem tail.
inline constexpr int kTraceTail = 64;

#if C2SL_CAPTURE

/// Prints each lane's last kTraceTail published slots to `out`: ops with
/// their arguments and witnesses, ticks and epoch changes. C2Store wires it
/// into the assert-failure hook, so a failed invariant ships the ops and
/// linearization evidence around it.
void dump_trace_tail(std::FILE* out, const StoreTrace& trace, int max_lanes);

#else

constexpr void dump_trace_tail(std::FILE*, const StoreTrace&, int) {}

#endif  // C2SL_CAPTURE

}  // namespace c2sl::tel
