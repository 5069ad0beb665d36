// Execution histories in the standard shared-memory sense (paper §2): a
// sequence of invocation / response / base-object-step / crash events, totally
// ordered by a global sequence number. Histories are the interface between the
// simulator and the verification tooling: the linearizability checker consumes
// the operation table (operations()), the strong-linearizability checker
// consumes the raw event sequence of every edge of an execution graph.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/value.h"

namespace c2sl::sim {

using ProcId = int;
using OpId = int;

struct Event {
  enum class Kind { kInvoke, kRespond, kStep, kCrash };
  Kind kind;
  ProcId proc;
  OpId op;  // -1 for steps/crashes not tied to a recorded operation
  uint64_t seq;
  std::string object;  // object the event concerns (empty for crash)
  std::string name;    // operation name for inv/resp, step description for steps
  Val payload;         // args for invoke, response for respond
};

/// One high-level operation, derived from the event sequence.
struct OpRecord {
  OpId id = -1;
  ProcId proc = -1;
  std::string object;
  std::string name;
  Val args;
  bool complete = false;
  Val resp;
  uint64_t inv_seq = 0;
  uint64_t resp_seq = std::numeric_limits<uint64_t>::max();
};

class History {
 public:
  /// When true, every base-object step is recorded as an event (useful for
  /// debugging and for linearization-witness extraction); inv/resp events are
  /// always recorded. Steps advance the global clock either way.
  bool record_steps = false;

  OpId invoke(ProcId proc, std::string object, std::string name, Val args);
  void respond(ProcId proc, OpId op, Val resp);
  void on_step(ProcId proc, const std::string& object, const std::string& desc);
  void crash(ProcId proc);

  const std::vector<Event>& events() const { return events_; }
  uint64_t time() const { return seq_; }
  size_t num_ops() const { return op_count_; }

  /// Operation table derived from events; index in the result equals OpId.
  std::vector<OpRecord> operations() const;

  /// Multi-line rendering for diagnostics and counterexample reports.
  std::string to_string() const;

 private:
  uint64_t seq_ = 0;
  size_t op_count_ = 0;
  std::vector<Event> events_;
};

/// Renders one event, e.g. "p0 inv  maxreg.WriteMax(3)".
std::string to_string(const Event& e);

}  // namespace c2sl::sim
