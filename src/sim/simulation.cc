#include "src/sim/simulation.h"

#include <cassert>
#include <utility>

#include "src/obs/trace.h"

namespace easyio::sim {

namespace {
// Stack of live simulations; supports nested simulations in tests.
// thread_local so distinct Simulation instances can run on distinct host
// threads (harness::RunIndexed): each thread sees only the simulations
// constructed on it, and Simulation::Get() resolves per thread.
thread_local std::vector<Simulation*> g_sim_stack;
}  // namespace

Simulation::Simulation(const Options& options)
    : cores_(static_cast<size_t>(options.num_cores)),
      stacks_(StackAllocator::Options{options.stack_size,
                                      options.stack_guard_pages,
                                      options.poison_stacks}),
      core_steal_hooks_(static_cast<size_t>(options.num_cores)),
      core_enqueue_hooks_(static_cast<size_t>(options.num_cores)) {
  assert(options.num_cores >= 1);
  g_sim_stack.push_back(this);
}

Simulation::~Simulation() {
  // Timers outlive their records: an armed one that dies later must not
  // reach back into this simulation.
  for (const Event& ev : heap_) {
    if (ev.timer != nullptr) {
      ev.timer->sim_ = nullptr;
    }
  }
  // Stack memory is owned by stacks_ (freed on member destruction); contexts
  // of never-finished tasks may still hold sanitizer fiber state, and their
  // frames are dropped without being unwound.
  for (auto& task : tasks_) {
    if (task->stack_ != nullptr) {
      AbandonContext(&task->ctx_);
    }
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
  s.fn = nullptr;  // release captured state
  if (++s.gen == 0) {
    s.gen = 1;  // keep ids nonzero and distinguishable after wraparound
  }
  free_event_slots_.push_back(slot);
}

void Simulation::Sift(size_t i, const Event& ev) {
  // Floyd's method: the hole goes down to a leaf along the earlier children,
  // then back up until `ev` fits, which may be above where it started.
  for (size_t child = 2 * i + 1; child < heap_.size(); child = 2 * i + 1) {
    if (child + 1 < heap_.size() && heap_[child + 1] < heap_[child]) {
      child++;
    }
    Place(i, heap_[child]);
    i = child;
  }
  while (i > 0 && ev < heap_[(i - 1) / 2]) {
    Place(i, heap_[(i - 1) / 2]);
    i = (i - 1) / 2;
  }
  Place(i, ev);
}

void Simulation::Remove(size_t i) {
  if (heap_[i].timer != nullptr) {
    heap_[i].timer->sim_ = nullptr;
  }
  const Event last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    Sift(i, last);
  }
}

void Simulation::ScheduleCall(SimTime t, EventProc fn, void* arg,
                              uint64_t tag) {
  assert(t >= now_);
  heap_.emplace_back();
  Sift(heap_.size() - 1, Event{t, next_event_seq_++, fn, arg, tag, nullptr});
}

void Simulation::Rearm(Timer& timer, SimTime t, EventProc fn, void* arg,
                       uint64_t tag) {
  assert(t >= now_);
  assert(timer.sim_ == nullptr || timer.sim_ == this);
  if (timer.sim_ == nullptr) {
    timer.sim_ = this;
    timer.index_ = heap_.size();
    heap_.emplace_back();
  }
  Sift(timer.index_, Event{t, next_event_seq_++, fn, arg, tag, &timer});
}

void Simulation::Disarm(Timer& timer) {
  if (timer.sim_ != nullptr) {
    assert(timer.sim_ == this);
    Remove(timer.index_);
  }
}

EventId Simulation::ScheduleAt(SimTime t, EventFn fn) {
  const uint32_t slot = AcquireEventSlot();
  EventSlot& s = event_slots_[slot];
  s.fn = std::move(fn);
  const EventId id = MakeEventId(slot, s.gen);
  Rearm(s.timer, t, &Simulation::FireSlot, this, id);
  return id;
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
  EventSlot& s = event_slots_[slot];
  if (s.gen != static_cast<uint32_t>(id)) {
    return;  // already fired, cancelled, or recycled
  }
  Disarm(s.timer);
  ReleaseEventSlot(slot);
}

void Simulation::FireSlot(void* sim, uint64_t id) {
  auto* self = static_cast<Simulation*>(sim);
  const uint32_t slot = static_cast<uint32_t>(id >> 32) - 1;
  EventSlot& s = self->event_slots_[slot];
  assert(s.gen == static_cast<uint32_t>(id));
  EventFn fn = std::move(s.fn);
  self->ReleaseEventSlot(slot);
  fn();
}

void Simulation::RunUntil(SimTime limit) {
  assert(!in_task() && "RunUntil called from inside a task");
  run_limit_ = limit;
  while (!stop_requested_ && !heap_.empty() && heap_[0].time <= limit) {
    const Event ev = heap_[0];
    Remove(0);
    assert(ev.time >= now_);
    now_ = ev.time;
    ev.fn(ev.arg, ev.tag);
  }
  if (now_ < limit && limit != kSimTimeMax) {
    now_ = limit;
  }
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
  ScheduleCall(now_, &Simulation::RunKick, this, static_cast<uint64_t>(core));
}

void Simulation::RunKick(void* sim, uint64_t core) {
  auto* self = static_cast<Simulation*>(sim);
  self->cores_[core].kick_pending = false;
  self->DispatchKick(static_cast<int>(core));
}

void Simulation::DispatchKick(int core) {
  Core& c = cores_[core];
  if (c.running != nullptr) {
    return;
  }
  Task* next = nullptr;
  if (!c.run_queue.empty()) {
    next = c.run_queue.front();
    c.run_queue.pop_front();
    OBS_COUNTER_SAMPLED(obs::Track(obs::kProcCores, core), "runq",
                        c.run_queue.size());
  } else if (const auto& steal = core_steal_hooks_[static_cast<size_t>(core)]) {
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

void Simulation::BeginSlice(Task* t, bool event_tail) {
  assert(t->state_ == Task::State::kRunnable ||
         t->state_ == Task::State::kRunning || t->holds_core_);
  Core& core = cores_[t->core_];
  assert(core.running == nullptr || core.running == t);
  t->state_ = Task::State::kRunning;
  t->holds_core_ = false;
  MarkCoreBusy(core, t);
  current_ = t;
  slice_is_event_tail_ = event_tail;
  context_switches_++;
}

void Simulation::DispatchTask(Task* t, bool event_tail) {
  BeginSlice(t, event_tail);
  SwapContext(&host_ctx_, &t->ctx_);
  // Back on the host stack. A tail slice may have handed its core straight
  // on, so the task that switched back is current_, not necessarily t.
  Task* out = current_;
  current_ = nullptr;
  const Directive d = std::exchange(directive_, Directive::kNone);
  if (d != Directive::kNone) {
    HandleDirective(out, d);
  }
}

void Simulation::ResumeTask(void* task, uint64_t /*unused*/) {
  Task* t = static_cast<Task*>(task);
  t->owner_->DispatchTask(t, /*event_tail=*/true);
}

void Simulation::HandleDirective(Task* t, Directive d) {
  Core& core = cores_[t->core_];
  switch (d) {
    case Directive::kAdvance: {
      // Core stays busy; resume the same task after the delay.
      assert(core.running == t);
      ScheduleCall(now_ + advance_ns_, &Simulation::ResumeTask, t, 0);
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
  assert(in_task() && d != Directive::kFinish);
  Task* t = current_;
  if (!slice_is_event_tail_) {
    // A kick dispatched this slice and still has work to do after it.
    directive_ = d;
    SwapContext(&t->ctx_, &host_ctx_);
    return;
  }
  // Nothing runs after a tail slice on the host: act on the directive here,
  // then do what the host loop would do next. When that is dispatching a
  // task resume, do it from this stack and skip the host round trip.
  HandleDirective(t, d);
  if (!stop_requested_ && !heap_.empty()) {
    const Event& ev = heap_[0];
    if (ev.fn == &Simulation::ResumeTask && ev.time <= run_limit_) {
      Task* next = static_cast<Task*>(ev.arg);
      assert(ev.time >= now_);
      now_ = ev.time;
      Remove(0);
      BeginSlice(next, /*event_tail=*/true);
      if (next != t) {
        SwapContext(&t->ctx_, &next->ctx_);
      }
      return;
    }
  }
  SwapContext(&t->ctx_, &host_ctx_);
}

void Simulation::Advance(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  // Switching out would push this task's resume record at `until`, with
  // the newest seq, and the host loop would pop the earliest record next.
  // A tail slice (its event does nothing after it) with no stop pending
  // can do that pop itself, decided by one look at the earliest record:
  // - nothing due at or before `until` (a same-time record has a smaller
  //   seq, so it would fire first), and `until` within the loop's limit:
  //   the pop would resume this task, so the clock moves inline. That is
  //   indistinguishable, save the one unused event sequence number: an
  //   order-preserving renumbering (elision).
  // - a task resume due at or before `until` and within the limit: the pop
  //   would dispatch that task, so HandOff does it from this stack.
  // Anything else switches out to the host loop.
  const SimTime until = now_ + ns;
  if (slice_is_event_tail_ && !stop_requested_) {
    if (heap_.empty() || heap_[0].time > until) {
      if (until <= run_limit_) {
        now_ = until;
        return;
      }
    } else if (heap_[0].fn == &Simulation::ResumeTask &&
               heap_[0].time <= run_limit_) {
      HandOff(until);
      return;
    }
  }
  advance_ns_ = ns;
  SwitchOut(Directive::kAdvance);
}

void Simulation::HandOff(SimTime until) {
  Task* t = current_;
  const Event top = heap_[0];
  Task* next = static_cast<Task*>(top.arg);
  assert(top.timer == nullptr && next != t);
  assert(cores_[t->core_].running == t);  // the core stays busy
  // The push of t's resume and the pop of the top in one sift: the resume
  // takes the top's slot with the (time, seq) ScheduleCall would give it.
  Sift(0, Event{until, next_event_seq_++, &Simulation::ResumeTask, t, 0,
                nullptr});
  now_ = top.time;
  BeginSlice(next, /*event_tail=*/true);
  SwapContext(&t->ctx_, &next->ctx_);
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
    assert(cores_[core].running == t);
    ScheduleCall(now_, &Simulation::ResumeTask, t, 0);
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
  // Always back to the host: the host releases this task's stack, which
  // must not be the stack that does it.
  assert(in_task());
  directive_ = Directive::kFinish;
  ExitToContext(&current_->ctx_, &host_ctx_);  // never resumed
}

}  // namespace easyio::sim
