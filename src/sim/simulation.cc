#include "src/sim/simulation.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/obs/trace.h"

namespace easyio::sim {

namespace {
// Stack of live simulations; supports nested simulations in tests.
// thread_local so distinct Simulation instances can run on distinct host
// threads (harness::ScenarioRunner): each thread sees only the simulations
// constructed on it, and Simulation::Get() resolves per thread.
thread_local std::vector<Simulation*> g_sim_stack;
}  // namespace

Simulation::Simulation(const Options& options)
    : cores_(static_cast<size_t>(options.num_cores)),
      stacks_(StackAllocator::Options{options.stack_size,
                                      options.stack_guard_pages,
                                      options.poison_stacks}),
      core_poll_hooks_(static_cast<size_t>(options.num_cores)),
      core_steal_hooks_(static_cast<size_t>(options.num_cores)),
      core_enqueue_hooks_(static_cast<size_t>(options.num_cores)) {
  assert(options.num_cores >= 1);
  g_sim_stack.push_back(this);
}

Simulation::~Simulation() {
  // Stack memory is owned by stacks_ (freed on member destruction); contexts
  // of never-finished tasks may still hold sanitizer fiber state.
  for (auto& task : tasks_) {
    ReleaseContext(&task->ctx_);
  }
  std::erase(g_sim_stack, this);
}

Simulation* Simulation::Get() {
  assert(!g_sim_stack.empty() && "no live Simulation");
  return g_sim_stack.back();
}

// ---------------------------------------------------------------- events ----

uint32_t Simulation::AcquireEventSlot() {
  if (!free_event_slots_.empty()) {
    const uint32_t slot = free_event_slots_.back();
    free_event_slots_.pop_back();
    return slot;
  }
  event_slots_.emplace_back();
  return static_cast<uint32_t>(event_slots_.size() - 1);
}

void Simulation::ReleaseEventSlot(uint32_t slot) {
  EventSlot& s = event_slots_[slot];
  s.armed = false;
  s.fn = nullptr;  // release captured state
  if (++s.gen == 0) {
    s.gen = 1;  // keep ids nonzero and distinguishable after wraparound
  }
  free_event_slots_.push_back(slot);
}

EventId Simulation::ScheduleAt(SimTime t, EventFn fn) {
  assert(t >= now_);
  const uint32_t slot = AcquireEventSlot();
  EventSlot& s = event_slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  events_.push(Event{t, next_event_seq_++, slot, s.gen});
  return MakeEventId(slot, s.gen);
}

EventId Simulation::ScheduleAfter(uint64_t delay_ns, EventFn fn) {
  return ScheduleAt(now_ + delay_ns, std::move(fn));
}

void Simulation::Cancel(EventId id) {
  const uint32_t raw = static_cast<uint32_t>(id >> 32);
  if (raw == 0 || raw > event_slots_.size()) {
    return;  // never issued (e.g. the 0 sentinel)
  }
  const uint32_t slot = raw - 1;
  const uint32_t gen = static_cast<uint32_t>(id);
  EventSlot& s = event_slots_[slot];
  if (s.gen != gen || !s.armed) {
    return;  // already fired, cancelled, or recycled
  }
  ReleaseEventSlot(slot);  // the stale heap entry is skipped on pop
}

void Simulation::RunUntil(SimTime limit) {
  assert(!in_task() && "RunUntil called from inside a task");
  running_loop_ = true;
  run_limit_ = limit;
  while (!stop_requested_ && !events_.empty() && events_.top().time <= limit) {
    const Event ev = events_.top();
    events_.pop();
    EventSlot& s = event_slots_[ev.slot];
    if (s.gen != ev.gen || !s.armed) {
      continue;  // cancelled (slot already recycled)
    }
    EventFn fn = std::move(s.fn);
    ReleaseEventSlot(ev.slot);
    assert(ev.time >= now_);
    now_ = ev.time;
    fn();
  }
  if (now_ < limit && limit != kSimTimeMax) {
    now_ = limit;
  }
  running_loop_ = false;
}

void Simulation::Run() { RunUntil(kSimTimeMax); }

// ----------------------------------------------------------------- tasks ----

Task* Simulation::CreateTask(int core, std::function<void()> fn,
                             bool detached) {
  assert(core >= 0 && core < num_cores());
  Task* raw;
  if (!free_tasks_.empty()) {
    raw = free_tasks_.back();
    free_tasks_.pop_back();
    assert(raw->state_ == Task::State::kFinished && raw->joiners_.empty());
    raw->id_ = next_task_id_++;
    raw->core_ = core;
    raw->fn_ = std::move(fn);
    raw->state_ = Task::State::kRunnable;
    raw->detached_ = detached;
    raw->holds_core_ = false;
    raw->user_data_ = nullptr;
    raw->name_.clear();
  } else {
    tasks_.push_back(std::unique_ptr<Task>(
        new Task(next_task_id_++, core, std::move(fn))));
    raw = tasks_.back().get();
    raw->owner_ = this;
    raw->detached_ = detached;
  }
  raw->stack_ = stacks_.Acquire();
  MakeContext(&raw->ctx_, raw->stack_, stacks_.stack_size(),
              &Simulation::TaskEntry, raw);
  cores_[core].run_queue.push_back(raw);
  OBS_COUNTER_SAMPLED(obs::Track(obs::kProcCores, core), "runq",
                      cores_[core].run_queue.size());
  KickCore(core);
  NotifyEnqueue(core);
  return raw;
}

void Simulation::NotifyEnqueue(int core) {
  if (cores_[core].running == nullptr) {
    return;  // the core itself will pick the task up
  }
  if (const auto& hook = core_enqueue_hooks_[static_cast<size_t>(core)]) {
    hook(core);
  }
}

Task* Simulation::Spawn(int core, std::function<void()> fn) {
  return CreateTask(core, std::move(fn), /*detached=*/false);
}

Task* Simulation::SpawnDetached(int core, std::function<void()> fn) {
  return CreateTask(core, std::move(fn), /*detached=*/true);
}

void Simulation::TaskEntry(void* arg) {
  Task* t = static_cast<Task*>(arg);
  t->fn_();
  t->owner_->FinishCurrent();
  // Unreachable: FinishCurrent switches away permanently.
}

void Simulation::MarkCoreBusy(Core& core, Task* t) {
  if (core.running == nullptr) {
    core.busy_since = now_;
  }
  core.running = t;
}

void Simulation::MarkCoreIdle(Core& core) {
  if (core.running != nullptr) {
    core.busy_ns += now_ - core.busy_since;
    if (auto* t = obs::Get(); t != nullptr && t->Sample()) {
      const auto core_idx = static_cast<uint32_t>(&core - cores_.data());
      t->CompleteSpan(obs::Track(obs::kProcCores, core_idx), "run",
                      core.busy_since, now_,
                      {{"task", core.running->id()}});
    }
    core.running = nullptr;
  }
}

SimTime Simulation::core_busy_ns(int core) const {
  const Core& c = cores_[core];
  SimTime busy = c.busy_ns;
  if (c.running != nullptr) {
    busy += now_ - c.busy_since;
  }
  return busy;
}

void Simulation::KickCore(int core) {
  Core& c = cores_[core];
  if (c.running != nullptr || c.kick_pending) {
    return;
  }
  c.kick_pending = true;
  ScheduleAt(now_, [this, core] {
    Core& c = cores_[core];
    c.kick_pending = false;
    if (c.running != nullptr) {
      return;
    }
    if (const auto& poll = core_poll_hooks_[static_cast<size_t>(core)]) {
      poll(core);
    }
    if (c.running != nullptr) {
      return;  // poll hook resumed a core-holding task
    }
    Task* next = nullptr;
    if (!c.run_queue.empty()) {
      next = c.run_queue.front();
      c.run_queue.pop_front();
      OBS_COUNTER_SAMPLED(obs::Track(obs::kProcCores, core), "runq",
                          c.run_queue.size());
    } else if (const auto& steal =
                   core_steal_hooks_[static_cast<size_t>(core)]) {
      next = steal(core);
      if (next != nullptr) {
        next->core_ = core;
      }
    }
    if (next != nullptr) {
      DispatchTask(next, /*event_tail=*/false);
      // Work is still queued behind a now-busy core: let the scheduling
      // layer prod idle siblings to steal it.
      if (!c.run_queue.empty()) {
        NotifyEnqueue(core);
      }
    }
  });
}

Task* Simulation::TryStealFrom(int victim) {
  Core& c = cores_[victim];
  if (c.run_queue.empty()) {
    return nullptr;
  }
  Task* t = c.run_queue.back();
  c.run_queue.pop_back();
  return t;
}

void Simulation::DispatchTask(Task* t, bool event_tail) {
  assert(t->state_ == Task::State::kRunnable ||
         t->state_ == Task::State::kRunning);
  Core& core = cores_[t->core_];
  assert(core.running == nullptr || core.running == t);
  t->state_ = Task::State::kRunning;
  t->holds_core_ = false;
  MarkCoreBusy(core, t);
  current_ = t;
  slice_is_event_tail_ = event_tail;
  context_switches_++;
  SwapContext(&host_ctx_, &t->ctx_);
  current_ = nullptr;
  HandleDirective(t);
}

void Simulation::HandleDirective(Task* t) {
  const Directive d = directive_;
  directive_ = Directive::kNone;
  Core& core = cores_[t->core_];
  switch (d) {
    case Directive::kAdvance: {
      // Core stays busy; resume the same task after the delay.
      ScheduleAfter(advance_ns_, [this, t] {
        assert(t->state_ == Task::State::kRunning);
        DispatchTask(t, /*event_tail=*/true);
      });
      break;
    }
    case Directive::kYield: {
      t->state_ = Task::State::kRunnable;
      core.run_queue.push_back(t);
      OBS_COUNTER_SAMPLED(obs::Track(obs::kProcCores, t->core_), "runq",
                          core.run_queue.size());
      MarkCoreIdle(core);
      KickCore(t->core_);
      break;
    }
    case Directive::kBlock: {
      t->state_ = Task::State::kBlocked;
      OBS_EVENT_SAMPLED(obs::Track(obs::kProcCores, t->core_), "park",
                        {"task", t->id()});
      MarkCoreIdle(core);
      KickCore(t->core_);
      break;
    }
    case Directive::kBlockHoldingCore: {
      t->state_ = Task::State::kBlocked;
      t->holds_core_ = true;
      // core.running stays == t: the core is busy-waiting on hardware.
      break;
    }
    case Directive::kFinish: {
      t->state_ = Task::State::kFinished;
      for (Task* joiner : t->joiners_) {
        Wake(joiner);
      }
      t->joiners_.clear();
      t->fn_ = nullptr;  // release any captured workload state
      stacks_.Release(t->stack_);
      t->stack_ = nullptr;
      ReleaseContext(&t->ctx_);  // sanitizer fiber bookkeeping, if any
      MarkCoreIdle(core);
      KickCore(t->core_);
      if (t->detached_) {
        // Nobody may reference a detached task after it finishes; park the
        // object for the next spawn instead of freeing it.
        free_tasks_.push_back(t);
      }
      break;
    }
    case Directive::kNone:
      assert(false && "task switched out without a directive");
      break;
  }
}

void Simulation::SwitchOut(Directive d) {
  assert(in_task());
  directive_ = d;
  Task* t = current_;
  SwapContext(&t->ctx_, &host_ctx_);
}

void Simulation::Advance(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  // Elision: switching out would schedule the resume event at `until` and
  // return to RunUntil, which would pop that event next and switch straight
  // back, provided (1) the event that dispatched this slice does nothing
  // after DispatchTask returns, (2) no stop is pending, (3) `until` is
  // within the loop's limit and (4) nothing else is due at or before
  // `until` (a same-time entry has a smaller seq, so it would fire first;
  // a cancelled entry still counts until it is popped, which only costs
  // an elision, never order).
  // Then moving the clock inline is indistinguishable, save the one unused
  // event sequence number: an order-preserving renumbering.
  const SimTime until = now_ + ns;
  if (slice_is_event_tail_ && !stop_requested_ && until <= run_limit_ &&
      (events_.empty() || events_.top().time > until)) {
    now_ = until;
    return;
  }
  advance_ns_ = ns;
  SwitchOut(Directive::kAdvance);
}

void Simulation::Yield() { SwitchOut(Directive::kYield); }

void Simulation::Block() { SwitchOut(Directive::kBlock); }

void Simulation::BlockHoldingCore() {
  SwitchOut(Directive::kBlockHoldingCore);
}

void Simulation::Wake(Task* t) { WakeOn(t, t->core_); }

void Simulation::WakeOn(Task* t, int core) {
  assert(t->state_ == Task::State::kBlocked);
  if (t->holds_core_) {
    // The task still owns its core (synchronous hardware wait): resume it
    // directly; it cannot migrate.
    assert(core == t->core_);
    ScheduleAt(now_, [this, t] {
      assert(t->holds_core_ && cores_[t->core_].running == t);
      t->state_ = Task::State::kRunnable;
      DispatchTask(t, /*event_tail=*/true);
    });
    return;
  }
  t->state_ = Task::State::kRunnable;
  t->core_ = core;
  cores_[core].run_queue.push_back(t);
  OBS_COUNTER_SAMPLED(obs::Track(obs::kProcCores, core), "runq",
                      cores_[core].run_queue.size());
  KickCore(core);
  NotifyEnqueue(core);
}

void Simulation::Join(Task* t) {
  assert(in_task());
  assert(!t->detached_ && "cannot join a detached task");
  if (t->finished()) {
    return;
  }
  t->joiners_.push_back(current_);
  Block();
}

void Simulation::SleepFor(uint64_t ns) {
  assert(in_task());
  Task* t = current_;
  ScheduleAfter(ns, [this, t] { Wake(t); });
  Block();
}

void Simulation::FinishCurrent() {
  SwitchOut(Directive::kFinish);
  // A finished task is never resumed.
  std::fprintf(stderr, "easyio: finished task resumed\n");
  std::abort();
}

}  // namespace easyio::sim
