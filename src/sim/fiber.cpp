#include "sim/fiber.h"

#include <cstdint>
#include <cstring>
#include <vector>

#if C2SL_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#include "util/assert.h"

#if C2SL_FIBER_ASM
extern "C" void c2sl_fiber_switch(void** save, void* next) noexcept;  // fiber_switch.S
#endif

namespace c2sl::sim {

namespace {
/// Stacks of destroyed fibers, for the next fibers on this thread. The explorer builds fresh fibers for every replay, and a fresh
/// 256 KiB stack faults in fresh pages each time (under ASAN it is also an
/// mmap and an munmap).
std::vector<std::unique_ptr<char[]>>& stack_pool() {
  thread_local std::vector<std::unique_ptr<char[]>> pool;
  return pool;
}

/// The fiber a first resume() enters, for Fiber::entry to pick up.
thread_local Fiber* entering = nullptr;

#if C2SL_FIBER_ASM
void jump(void*& save, void* next) { c2sl_fiber_switch(&save, next); }
#else
void jump(ucontext_t& save, ucontext_t& next) { C2SL_ASSERT(swapcontext(&save, &next) == 0); }
#endif
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

void Fiber::entry() {
  Fiber* self = entering;
  self->run_body();
  jump(self->self_, self->caller_);  // for good: nothing resumes it again
  __builtin_unreachable();
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
  // stack's fake frames. Fiber::entry then switches to the caller's stack.
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
    entering = this;
#if C2SL_FIBER_ASM
    // The frame the switch pops: the ABI's initial x87 control word and
    // MXCSR, zeroed r15..r12, rbx and rbp, then entry as the return address,
    // under a 0 that ends unwinds and leaves entry's stack 8 mod 16.
    auto top = reinterpret_cast<uintptr_t>(stack_.get() + kStackBytes) & ~uintptr_t{15};
    const uint64_t frame[] = {0x037F, 0x1F80, 0, 0, 0, 0, 0, 0,
                              reinterpret_cast<uint64_t>(&Fiber::entry), 0};
    self_ = reinterpret_cast<char*>(top) - sizeof frame;
    std::memcpy(self_, frame, sizeof frame);
#else
    C2SL_ASSERT(getcontext(&self_) == 0);
    self_.uc_stack.ss_sp = stack_.get();
    self_.uc_stack.ss_size = kStackBytes;
    makecontext(&self_, &Fiber::entry, 0);
#endif
  }
#if C2SL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&caller_fake_stack_, stack_.get(), kStackBytes);
#endif
  jump(caller_, self_);
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
  jump(self_, caller_);
#if C2SL_ASAN_FIBERS
  // Back on the fiber stack; the caller may have moved between resumes, so
  // refresh its bounds.
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &caller_stack_bottom_,
                                  &caller_stack_size_);
#endif
}

}  // namespace c2sl::sim
