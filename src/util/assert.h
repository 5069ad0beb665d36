// Internal assertion helpers for the c2sl library.
//
// The simulator and the verification tooling are only trustworthy if their own
// invariants hold, so assertions stay enabled in every build configuration
// (the top-level CMakeLists strips -DNDEBUG). C2SL_ASSERT aborts with a
// source-located message; C2SL_CHECK throws, for conditions that depend on
// caller input rather than internal logic.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace c2sl {

/// Last-chance diagnostic hook, invoked by assert_fail before abort. Each
/// svc::C2Store installs its witness-trace tail dump here (tel::dump_trace_tail,
/// telemetry/trace_export.h) with itself as the context, so a failed
/// invariant ships the last ops per lane with it. Registration is two plain
/// register writes (last installer wins — one dump is plenty); the slot holds
/// a function + context pair read racily at failure time.
struct FailureHookSlot {
  std::atomic<void (*)(void*)> fn{nullptr};
  std::atomic<void*> ctx{nullptr};
};

inline FailureHookSlot& failure_hook() {
  static FailureHookSlot slot;
  return slot;
}

inline void set_failure_hook(void (*fn)(void*), void* ctx) {
  FailureHookSlot& slot = failure_hook();
  // c2sl-atomic: store relaxed — ctx publishes via the release store of fn
  slot.ctx.store(ctx, std::memory_order_relaxed);
  // c2sl-atomic: store release — publishes fn+ctx to a racing assert_fail
  slot.fn.store(fn, std::memory_order_release);
}

/// Clears the hook iff it still points at `ctx` (a dying owner must not
/// clobber a successor's registration).
inline void clear_failure_hook(void* ctx) {
  FailureHookSlot& slot = failure_hook();
  // c2sl-atomic: load acquire — pairs with set_failure_hook's release
  if (slot.ctx.load(std::memory_order_acquire) == ctx) {
    // c2sl-atomic: store relaxed — disarm fn first; ctx is dead once fn is null
    slot.fn.store(nullptr, std::memory_order_relaxed);
    // c2sl-atomic: store relaxed — best-effort slot scrub on the owner's exit
    slot.ctx.store(nullptr, std::memory_order_relaxed);
  }
}

[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line,
                                     const std::string& msg) {
  std::fprintf(stderr, "c2sl assertion failed: %s\n  at %s:%d\n  %s\n", expr, file,
               line, msg.c_str());
  FailureHookSlot& slot = failure_hook();
  // c2sl-atomic: load acquire — observing fn also makes its ctx visible
  if (auto* fn = slot.fn.load(std::memory_order_acquire)) {
    // c2sl-atomic: load relaxed — ordered after fn by the acquire above
    fn(slot.ctx.load(std::memory_order_relaxed));
  }
  std::abort();
}

/// Thrown by C2SL_CHECK on precondition violations caused by caller input.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

}  // namespace c2sl

#define C2SL_ASSERT(expr)                                          \
  do {                                                             \
    if (!(expr)) ::c2sl::assert_fail(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define C2SL_ASSERT_MSG(expr, msg)                                    \
  do {                                                                \
    if (!(expr)) ::c2sl::assert_fail(#expr, __FILE__, __LINE__, msg); \
  } while (0)

#define C2SL_CHECK(expr, msg)                                             \
  do {                                                                    \
    if (!(expr))                                                          \
      throw ::c2sl::PreconditionError(std::string("c2sl precondition: ") + \
                                      (msg));                             \
  } while (0)
