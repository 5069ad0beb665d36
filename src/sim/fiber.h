// Stackful cooperative fibers. On x86-64 a switch saves the callee-saved
// registers and swaps stack pointers (fiber_switch.S); elsewhere it is
// swapcontext, which also makes a signal-mask system call per switch.
// -DC2SL_FIBER_ASM=0 selects swapcontext on x86-64 too.
//
// The simulator runs every simulated process on its own fiber so that the
// paper's algorithms can be written as ordinary sequential code. Exactly one
// fiber runs at a time; context switches happen only inside Ctx::gate(), which
// makes every interleaving a deterministic function of the scheduler's choice
// sequence — the property the replay-based explorer and the strong-
// linearizability checker depend on.
#pragma once

#include <exception>
#include <functional>
#include <memory>

#if !defined(C2SL_FIBER_ASM) && defined(__x86_64__)
#define C2SL_FIBER_ASM 1
#elif !defined(C2SL_FIBER_ASM)
#define C2SL_FIBER_ASM 0
#endif
#if !C2SL_FIBER_ASM
#include <ucontext.h>
#endif

// AddressSanitizer must be told about every switch onto a user-managed stack,
// or its shadow bookkeeping (and the unwinder's __asan_handle_no_return on a
// CrashUnwind throw) operates on the wrong stack and reports false
// stack-use-after-scope errors. The annotations compile away entirely in
// non-ASAN builds.
#if defined(__SANITIZE_ADDRESS__)
#define C2SL_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define C2SL_ASAN_FIBERS 1
#endif
#endif
#ifndef C2SL_ASAN_FIBERS
#define C2SL_ASAN_FIBERS 0
#endif

namespace c2sl::sim {

/// Thrown by Ctx::gate() to unwind a crashed process. Deliberately not derived
/// from std::exception so that algorithm-level `catch (std::exception&)` blocks
/// (none exist in this codebase, but defensively) cannot swallow it. The fiber
/// trampoline catches it and marks the fiber finished; stack objects are
/// destroyed by normal unwinding, so crash injection does not leak.
struct CrashUnwind {};

class Fiber {
 public:
  static constexpr size_t kStackBytes = 256 * 1024;

  explicit Fiber(std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches into the fiber; returns when the fiber calls yield() or its body
  /// finishes. Must not be called on a finished fiber.
  void resume();

  /// Called from inside the fiber body: switches back to the resume() caller.
  void yield();

  bool finished() const { return finished_; }

  /// Exception (other than CrashUnwind) that escaped the body, if any.
  std::exception_ptr exception() const { return exception_; }

 private:
  [[noreturn]] static void entry();
  void run_body();

#if C2SL_FIBER_ASM
  using Context = void*;  ///< the stack pointer a switch away saved
#else
  using Context = ucontext_t;
#endif
  Context self_{};
  Context caller_{};
  /// kStackBytes, left uninitialised (nothing reads a stack slot before
  /// writing it), and reused: it goes back to a per-thread pool when its
  /// fiber is destroyed (fiber.cpp).
  std::unique_ptr<char[]> stack_;
#if C2SL_ASAN_FIBERS
  // ASAN fiber-switch protocol state: the fake-stack handles saved when each
  // side leaves its stack, and the caller's stack bounds as reported by
  // __sanitizer_finish_switch_fiber on fiber entry (needed to announce the
  // switch back).
  void* caller_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* caller_stack_bottom_ = nullptr;
  size_t caller_stack_size_ = 0;
#endif
  std::function<void()> body_;
  bool started_ = false;
  bool finished_ = false;
  bool inside_ = false;
  std::exception_ptr exception_;
};

}  // namespace c2sl::sim
