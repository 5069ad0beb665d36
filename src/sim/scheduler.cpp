#include "sim/scheduler.h"

#include <algorithm>
#include <utility>

#include "sim/sim_mem.h"
#include "util/assert.h"

namespace c2sl::sim {

namespace {
thread_local Ctx* t_running = nullptr;

/// Publishes `c` as the running context for one resume of its fiber.
struct RunningScope {
  explicit RunningScope(Ctx* c) : saved(std::exchange(t_running, c)) {}
  ~RunningScope() { t_running = saved; }
  Ctx* saved;
};
}  // namespace

Ctx* running_ctx() { return t_running; }

void mem_step(const char* op) {
  static const std::string kObject = "mem";
  if (t_running != nullptr) t_running->gate(kObject, op);
}

void Ctx::gate(const std::string& object_name, const std::string& desc) {
  if (pre_step_hook && !in_hook) {
    in_hook = true;
    pre_step_hook(*this);
    in_hook = false;
  }
  if (sched != nullptr) {
    sched->gate_impl(self);
  } else {
    if (solo_budget == 0) throw SoloBudgetExceeded{};
    --solo_budget;
  }
  ++steps_taken;
  if (hist != nullptr) {
    hist->on_step(self, object_name, desc);
  }
}

OpId Ctx::begin_op(std::string_view object, std::string_view name, Val args) {
  if (hist == nullptr) return -1;
  return hist->invoke(self, std::string(object), std::string(name), std::move(args));
}

void Ctx::end_op(OpId id, Val resp) {
  if (hist == nullptr || id < 0) return;
  hist->respond(self, id, std::move(resp));
}

Scheduler::Scheduler(World& world, History& history, int n)
    : world_(world), history_(history), procs_(static_cast<size_t>(n)) {
  C2SL_ASSERT(n > 0);
  for (int p = 0; p < n; ++p) {
    Proc& proc = procs_[static_cast<size_t>(p)];
    proc.ctx.world = &world_;
    proc.ctx.sched = this;
    proc.ctx.hist = &history_;
    proc.ctx.self = p;
  }
}

Scheduler::~Scheduler() {
  // Unwind every unfinished fiber via crash injection so that all stack-held
  // resources are destroyed (the Fiber destructor cannot unwind by itself).
  for (size_t p = 0; p < procs_.size(); ++p) {
    Proc& proc = procs_[p];
    if (proc.fiber && !proc.fiber->finished()) {
      proc.crash_requested = true;
      proc.fiber->resume();
      C2SL_ASSERT(proc.fiber->finished());
    }
  }
}

Ctx& Scheduler::ctx(ProcId p) {
  C2SL_ASSERT(p >= 0 && static_cast<size_t>(p) < procs_.size());
  return procs_[static_cast<size_t>(p)].ctx;
}

void Scheduler::spawn(ProcId p, std::function<void(Ctx&)> program) {
  C2SL_ASSERT(p >= 0 && static_cast<size_t>(p) < procs_.size());
  Proc& proc = procs_[static_cast<size_t>(p)];
  C2SL_ASSERT_MSG(!proc.spawned, "process already has a program");
  proc.spawned = true;
  Ctx* ctx = &proc.ctx;
  auto body = [program = std::move(program), ctx]() { program(*ctx); };
  proc.fiber = std::make_unique<Fiber>(std::move(body));
  // Run the prologue: everything up to the first base-object access.
  RunningScope scope(ctx);
  running_ = p;
  proc.fiber->resume();
  running_ = -1;
}

std::vector<ProcId> Scheduler::runnable() const {
  std::vector<ProcId> out;
  for (size_t p = 0; p < procs_.size(); ++p) {
    const Proc& proc = procs_[p];
    if (proc.spawned && !proc.crashed && proc.fiber && !proc.fiber->finished()) {
      out.push_back(static_cast<ProcId>(p));
    }
  }
  return out;
}

bool Scheduler::step(ProcId p) {
  C2SL_ASSERT(p >= 0 && static_cast<size_t>(p) < procs_.size());
  Proc& proc = procs_[static_cast<size_t>(p)];
  C2SL_ASSERT_MSG(proc.spawned && !proc.crashed && proc.fiber && !proc.fiber->finished(),
                  "step() on a non-runnable process");
  ++total_steps_;
  RunningScope scope(&proc.ctx);
  running_ = p;
  proc.fiber->resume();
  running_ = -1;
  return !proc.fiber->finished();
}

void Scheduler::crash(ProcId p) {
  C2SL_ASSERT(p >= 0 && static_cast<size_t>(p) < procs_.size());
  Proc& proc = procs_[static_cast<size_t>(p)];
  C2SL_ASSERT_MSG(proc.spawned && !proc.crashed && proc.fiber && !proc.fiber->finished(),
                  "crash() on a non-runnable process");
  proc.crash_requested = true;
  RunningScope scope(&proc.ctx);
  running_ = p;
  proc.fiber->resume();  // gate_impl observes the flag and throws CrashUnwind
  running_ = -1;
  C2SL_ASSERT(proc.fiber->finished());
  proc.crashed = true;
  history_.crash(p);
}

void Scheduler::apply(const Choice& c) {
  if (c.crash)
    crash(c.proc);
  else
    step(c.proc);
}

Scheduler::RunResult Scheduler::run(Strategy& strategy, uint64_t max_steps) {
  RunResult result;
  for (uint64_t i = 0; i < max_steps; ++i) {
    std::vector<ProcId> procs = runnable();
    if (procs.empty()) break;
    Choice c = strategy.choose(*this, procs);
    C2SL_ASSERT_MSG(std::find(procs.begin(), procs.end(), c.proc) != procs.end(),
                    "strategy chose a non-runnable process");
    apply(c);
    ++result.steps;
  }
  result.all_done = runnable().empty();
  return result;
}

void Scheduler::gate_impl(ProcId p) {
  Proc& proc = procs_[static_cast<size_t>(p)];
  C2SL_ASSERT_MSG(running_ == p, "gate reached outside the running fiber");
  if (proc.crash_requested) throw CrashUnwind{};
  proc.fiber->yield();  // park until the scheduler grants the step
  if (proc.crash_requested) throw CrashUnwind{};
}

std::string read_object_state(Ctx& ctx, size_t idx) {
  SimObject& obj = ctx.world->at(idx);
  ctx.gate(obj.name(), "read_state");
  return obj.state_string();
}

}  // namespace c2sl::sim
