#include "sim/fiber.h"

#include <cstdint>
#include <vector>

#if C2SL_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#include "util/assert.h"

namespace c2sl::sim {

namespace {
/// Stacks of destroyed fibers, for the next fibers on this thread. The explorer builds fresh fibers for every replay, and a fresh
/// 256 KiB stack faults in fresh pages each time (under ASAN it is also an
/// mmap and an munmap).
std::vector<std::unique_ptr<char[]>>& stack_pool() {
  thread_local std::vector<std::unique_ptr<char[]>> pool;
  return pool;
}
}  // namespace

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {
  std::vector<std::unique_ptr<char[]>>& pool = stack_pool();
  if (pool.empty()) {
    stack_.reset(new char[kStackBytes]);
    return;
  }
  stack_ = std::move(pool.back());
  pool.pop_back();
#if C2SL_ASAN_FIBERS
  // The stack may still carry the redzone poison of frames its last fiber
  // left on it when it switched away for good.
  ASAN_UNPOISON_MEMORY_REGION(stack_.get(), kStackBytes);
#endif
}

Fiber::~Fiber() {
  // Owners (the Scheduler) are responsible for unwinding unfinished fibers via
  // crash injection before destruction; if they did not, the stack memory is
  // still reclaimed here but destructors of objects on the fiber stack are
  // skipped. The Scheduler's destructor guarantees this never happens in
  // practice.
  stack_pool().push_back(std::move(stack_));
}

void Fiber::trampoline(unsigned int hi, unsigned int lo) {
  auto addr = (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo);
  reinterpret_cast<Fiber*>(addr)->run_body();
  // Returning from the trampoline resumes uc_link (== caller_).
}

void Fiber::run_body() {
#if C2SL_ASAN_FIBERS
  // First arrival on this fiber's stack: no fake stack to restore (nullptr),
  // and learn the caller's stack bounds for the switch back.
  __sanitizer_finish_switch_fiber(nullptr, &caller_stack_bottom_,
                                  &caller_stack_size_);
#endif
  try {
    body_();
  } catch (const CrashUnwind&) {
    // Crash injection: the process stops silently mid-operation.
  } catch (...) {
    exception_ = std::current_exception();
  }
  finished_ = true;
#if C2SL_ASAN_FIBERS
  // The fiber is dying: nullptr fake-stack pointer tells ASAN to destroy this
  // stack's fake frames. Returning resumes uc_link on the caller's stack.
  __sanitizer_start_switch_fiber(nullptr, caller_stack_bottom_,
                                 caller_stack_size_);
#endif
}

void Fiber::resume() {
  C2SL_ASSERT_MSG(!finished_, "resume() on a finished fiber");
  C2SL_ASSERT_MSG(!inside_, "resume() from inside the fiber");
  inside_ = true;
  if (!started_) {
    started_ = true;
    C2SL_ASSERT(getcontext(&self_) == 0);
    self_.uc_stack.ss_sp = stack_.get();
    self_.uc_stack.ss_size = kStackBytes;
    self_.uc_link = &caller_;
    auto addr = reinterpret_cast<uintptr_t>(this);
    makecontext(&self_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned int>(addr >> 32),
                static_cast<unsigned int>(addr & 0xffffffffu));
  }
#if C2SL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&caller_fake_stack_, stack_.get(), kStackBytes);
#endif
  C2SL_ASSERT(swapcontext(&caller_, &self_) == 0);
#if C2SL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(caller_fake_stack_, nullptr, nullptr);
#endif
  inside_ = false;
  if (exception_) {
    std::exception_ptr e = exception_;
    exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Fiber::yield() {
  C2SL_ASSERT_MSG(inside_, "yield() outside the fiber");
#if C2SL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&fiber_fake_stack_, caller_stack_bottom_,
                                 caller_stack_size_);
#endif
  C2SL_ASSERT(swapcontext(&self_, &caller_) == 0);
#if C2SL_ASAN_FIBERS
  // Back on the fiber stack; the caller may have moved between resumes, so
  // refresh its bounds.
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &caller_stack_bottom_,
                                  &caller_stack_size_);
#endif
}

}  // namespace c2sl::sim
