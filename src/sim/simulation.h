// The discrete-event simulation kernel.
//
// One host thread multiplexes N simulated cores. Each core runs at most one
// Task at a time; a Task gives up its core whenever it performs a modeled
// operation:
//
//   Advance(ns)  - the core is busy for `ns` of virtual time (CPU work,
//                  memcpy to slow memory, syscall overhead, ...). Other
//                  actors' events (DMA completions, timers) interleave at
//                  their exact virtual times. When nothing else is due
//                  before the delay ends, the clock moves inline, without a
//                  context switch.
//   Yield()      - cooperative reschedule: go to the back of the core's run
//                  queue (EasyIO's thread_yield on async-I/O return).
//   Block()      - park until another actor calls Wake(). Used by locks,
//                  SN waits and flow completions.
//   BlockHoldingCore() - park while *keeping the core busy*: models a
//                  synchronous CPU copy whose duration is decided by the
//                  bandwidth arbiter. No other uthread can use the core,
//                  which is exactly the CPU waste the paper measures.
//
// Every pending event is one slot-free record {time, seq, fn, arg, tag},
// and every one is live. Task resumes and core kicks push records
// directly (a core keeps at most one kick pending, by a flag); an owner
// that supersedes or withdraws its record (a flow completion, a model's
// tick) holds a Timer, which moves or removes it. Plain callbacks
// (ScheduleAt/ScheduleAfter) park their SmallFn in a slab slot whose Timer
// holds the record, so Cancel removes it.
//
// Where a slice ends: a *tail* slice, one dispatched by an Advance resume or
// a core-holding wake (records that do nothing after the slice), handles its
// own directive on the task's stack. Then, if the next due record resumes a
// task within the RunUntil limit and no stop is pending, it pops that record
// and switches straight into that task (or simply continues, when the task
// is itself). An Advance that hands off so pushes its own resume and pops
// the next one in a single sift: the resume record is re-seated at the
// heap's top, over the record it pops. Every other slice end returns to the
// host loop, which handles the directive: a slice dispatched by a core kick
// (the kick still notifies the enqueue hook afterwards), a finishing task
// (its stack is released on the host stack), and a tail slice whose next
// due record is not a task resume. Plain callbacks and kicks always run on
// the host stack.
//
// Determinism: events fire in (time, sequence) order whichever stack pops
// them; no wall-clock time or host threading is involved anywhere.
//
// Thread compatibility: a Simulation is single-threaded — every method,
// including construction and destruction, must be called from the host
// thread that created it (tasks always run on that thread, so task-side
// calls trivially comply). *Distinct* instances are independent and may run
// concurrently on distinct host threads: the only cross-instance state, the
// live-simulation stack behind Simulation::Get(), is thread_local, so Get()
// resolves to the innermost simulation constructed on the calling thread.
// harness::RunIndexed exploits this to fan independent scenarios across
// worker threads while each scenario stays byte-identical to a serial run.

#ifndef EASYIO_SIM_SIMULATION_H_
#define EASYIO_SIM_SIMULATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/context.h"
#include "src/sim/ring_queue.h"
#include "src/sim/small_fn.h"
#include "src/sim/stack_allocator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace easyio::sim {

// Contract: virtual time is single-threaded and deterministic — given the
// same sequence of Spawn/Schedule calls, every run interleaves identically,
// which is what lets EXPERIMENTS.md quote exact numbers and the crash tests
// replay exact failure points. Events with equal timestamps fire in issue
// order; a task observes time only through now() and the blocking
// primitives. This kernel is the substitute for the paper's real hardware
// (§5 testbed): it knows nothing about storage — cores, DMA engines and the
// media model are built on top of it — and the asynchrony the paper measures
// (uthreads harvesting DMA wait time, §4.1) appears here as Block()ed tasks
// yielding their core to the run queue.
//
// EventFn is a SmallFn, not a std::function: move-only, one indirect call to
// dispatch, and every capture the simulator's own hot paths use ([this],
// [this, core], [this, t]) stays in the inline buffer. Arbitrary larger
// captures still work via a heap fallback.
using EventFn = SmallFn<void()>;
// Opaque handle for Cancel(): slot index + generation. Never 0, so callers
// can keep 0 as a "no event pending" sentinel.
using EventId = uint64_t;
// The action of a pending-event record: runs at the record's time with the
// (arg, tag) it was scheduled with.
using EventProc = void (*)(void* arg, uint64_t tag);

class Simulation {
 public:
  struct Options {
    int num_cores = 1;
    size_t stack_size = 256 * 1024;
    // Map task stacks with a PROT_NONE guard page below the usable range so
    // overflows fault instead of corrupting a pooled neighbor.
    bool stack_guard_pages = false;
    // Fill stacks with StackAllocator::kPoisonByte on every (re)use.
    // Defaults on in builds compiled with -DEASYIO_STACK_POISON (Debug).
    bool poison_stacks = StackAllocator::kPoisonDefault;
  };

  explicit Simulation(const Options& options);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // The most recently constructed, still-alive simulation *on the calling
  // host thread*. Convenience for deeply nested code (modeled primitives)
  // that would otherwise thread the pointer everywhere; per-thread so
  // concurrent scenario workers never observe each other's instances.
  static Simulation* Get();

  SimTime now() const { return now_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  // A handle to at most one pending record. An armed Timer's record is in
  // the queue; it disarms when the record fires (before its action runs),
  // on Disarm, and when the Timer is destroyed. A Simulation that dies
  // first detaches its armed Timers. Neither copyable nor movable: the
  // record points back at it.
  class Timer {
   public:
    Timer() = default;
    ~Timer() {
      if (sim_ != nullptr) {
        sim_->Disarm(*this);
      }
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    bool armed() const { return sim_ != nullptr; }

   private:
    friend class Simulation;
    Simulation* sim_ = nullptr;  // set while armed
    size_t index_ = 0;           // its record's heap index while armed
  };

  // ---- Event scheduling (callable from anywhere) ----
  EventId ScheduleAt(SimTime t, EventFn fn);
  EventId ScheduleAfter(uint64_t delay_ns, EventFn fn);
  // Removes the event's record; a no-op for an id that already fired or
  // was cancelled.
  void Cancel(EventId id);
  // Gives `timer`'s record the (t, seq) a newly scheduled record would get,
  // and arms the timer if it was not. `arg` must stay valid while it is
  // armed.
  void Rearm(Timer& timer, SimTime t, EventProc fn, void* arg, uint64_t tag);
  // Removes `timer`'s record, if it is armed.
  void Disarm(Timer& timer);

  // ---- Task management ----
  // Spawns a task on `core`, runnable at the current time. The returned
  // pointer stays valid until the simulation is destroyed (or, for detached
  // tasks, until the task finishes — the Task object and its stack are then
  // recycled into the next spawn).
  Task* Spawn(int core, std::function<void()> fn);
  Task* SpawnDetached(int core, std::function<void()> fn);

  // Moves a Blocked task to the runnable state (on `core` if given, else its
  // home core) and kicks the core.
  void Wake(Task* t);
  void WakeOn(Task* t, int core);

  // ---- Run loop (host side; must not be called from inside a task) ----
  void Run();                    // until the event queue drains
  void RunUntil(SimTime t);      // process events with time <= t
  void RunFor(uint64_t dur_ns) { RunUntil(now_ + dur_ns); }
  // A stop ends the loop at its next turn: a task that requests it runs on
  // until it next switches out (an Advance then switches instead of moving
  // the clock inline). The request stays set, so Run() returns at once
  // until Resume() withdraws it.
  void RequestStop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }
  // Withdraws a stop and runs until the event queue drains or the next
  // stop. The events fire in the (time, action) order of a run that was
  // never stopped: the only thing a stop changes is an Advance elision it
  // declined, whose resume record, due before anything else, spends one
  // sequence number and moves nothing.
  void Resume() {
    stop_requested_ = false;
    Run();
  }

  // ---- Task-side primitives (must be called from inside a task) ----
  Task* current() const { return current_; }
  bool in_task() const { return current_ != nullptr; }
  void Advance(uint64_t ns);
  void Yield();
  void Block();
  void BlockHoldingCore();
  void Join(Task* t);
  // Sleeps the current task for `ns` without occupying the core.
  void SleepFor(uint64_t ns);

  // ---- Scheduler-layer hooks (per core, so multiple runtimes can own
  // disjoint core sets, as Caladan does across colocated applications) ----
  // Hooks live in flat per-core arrays sized at construction: the dispatch
  // path indexes and tests a SmallFn instead of probing a hash map.
  // The steal hook is consulted when the run queue is empty; it may return
  // a task stolen from another core.
  void SetStealHook(int core, SmallFn<Task*(int)> hook) {
    core_steal_hooks_[static_cast<size_t>(core)] = std::move(hook);
  }

  // The enqueue hook fires when a task is queued on `core` while the core is
  // already busy — the work-stealing runtime uses it to kick idle siblings.
  void SetEnqueueHook(int core, SmallFn<void(int)> hook) {
    core_enqueue_hooks_[static_cast<size_t>(core)] = std::move(hook);
  }

  // Removes and returns the task at the back of `victim`'s run queue (oldest
  // waiter is at the front; stealing from the back mirrors Caladan), or
  // nullptr if the queue is empty. The caller re-homes the task.
  Task* TryStealFrom(int victim);

  // Schedules a dispatch attempt on `core` (it will consult the steal
  // hook). Public so scheduling layers can prod idle cores.
  void Kick(int core) { KickCore(core); }

  // ---- Introspection ----
  size_t run_queue_depth(int core) const {
    return cores_[core].run_queue.size();
  }
  bool core_busy(int core) const {
    return cores_[core].running != nullptr;
  }
  SimTime core_busy_ns(int core) const;
  uint64_t tasks_spawned() const { return next_task_id_; }
  uint64_t context_switches() const { return context_switches_; }
  // Records ever scheduled (the sequence counter): ScheduleAt/After calls,
  // task resumes, core kicks and the models' own records.
  uint64_t events_scheduled() const { return next_event_seq_ - 1; }
  // Distinct stacks ever mapped; spawn churn should hold this steady.
  size_t stacks_created() const { return stacks_.stacks_created(); }

 private:
  // Pushes a slot-free record (task resumes): no allocation and no EventId.
  // `arg` must stay valid until the record fires.
  void ScheduleCall(SimTime t, EventProc fn, void* arg, uint64_t tag);

  // ScheduleAt/ScheduleAfter callbacks live in a slab of recycled slots, and
  // the record they push names its slot by the EventId in its tag, so a
  // schedule/fire cycle performs no per-event heap allocation once the slab
  // and the heap's vector have warmed up (SmallFn keeps the hot capture
  // shapes — two or three words — inline). A slot is recycled the moment
  // its event fires or is cancelled; the generation in the EventId makes
  // Cancel() a no-op for any other id naming it.
  struct EventSlot {
    EventFn fn;
    // Bumped on every release, so no issued id matches a free slot.
    uint32_t gen = 1;
    Timer timer;  // carries the slot's record while its event is pending
  };

  // A pending event: pops in (time, seq) order, seq counting every record
  // scheduled, so same-time events fire in schedule order. `timer` owns the
  // record, if any. A binary heap suffices: the store holds about a dozen
  // entries on the figure benches and 5 at 73% of hostbench fxmark_small's
  // pops, and a hand-off costs one sift (DESIGN.md §6).
  struct Event {
    SimTime time;
    uint64_t seq;
    EventProc fn;
    void* arg;
    uint64_t tag;
    Timer* timer;
    bool operator<(const Event& other) const {
      return time != other.time ? time < other.time : seq < other.seq;
    }
  };

  static EventId MakeEventId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot + 1) << 32) | gen;
  }

  uint32_t AcquireEventSlot();
  void ReleaseEventSlot(uint32_t slot);

  // The heap: Sift fills the hole at heap_[i] with `ev` (not a record in
  // the heap), moving records until `ev` sits where its (time, seq)
  // belongs; Remove takes heap_[i] out. Both keep the moved records'
  // Timers pointing at their indices.
  void Sift(size_t i, const Event& ev);
  void Remove(size_t i);
  void Place(size_t i, const Event& ev) {
    heap_[i] = ev;
    if (ev.timer != nullptr) {
      ev.timer->index_ = i;
    }
  }

  // Record actions. FireSlot runs a slab callback (arg: this, tag: its
  // EventId); ResumeTask dispatches a core-holding task as the tail of its
  // event (arg: the Task); RunKick picks a core's next task (arg: this,
  // tag: the core).
  static void FireSlot(void* sim, uint64_t id);
  static void ResumeTask(void* task, uint64_t unused);
  static void RunKick(void* sim, uint64_t core);

  struct Core {
    RingQueue<Task*> run_queue;
    Task* running = nullptr;
    bool kick_pending = false;  // a RunKick record is in the heap
    SimTime busy_ns = 0;
    SimTime busy_since = 0;
  };

  enum class Directive { kNone, kAdvance, kYield, kBlock, kBlockHoldingCore, kFinish };

  static void TaskEntry(void* arg);

  void KickCore(int core);
  void DispatchKick(int core);
  void NotifyEnqueue(int core);
  // Marks t running on its core and makes it current. `event_tail` says the
  // event that dispatches the slice does nothing after it, which lets the
  // slice elide an uncontended Advance and switch straight to the next task
  // (see SwitchOut()).
  void BeginSlice(Task* t, bool event_tail);
  // Host side: begins t's slice, switches into it and, once a task switches
  // back, acts on that task's directive if its own stack did not.
  void DispatchTask(Task* t, bool event_tail);
  void HandleDirective(Task* t, Directive d);
  [[noreturn]] void FinishCurrent();  // task side
  void MarkCoreBusy(Core& core, Task* t);
  void MarkCoreIdle(Core& core);
  Task* CreateTask(int core, std::function<void()> fn, bool detached);
  void SwitchOut(Directive d);     // task side: end the current slice
  // Task side, tail slice: ends the slice in an Advance to `until` by
  // dispatching the earliest record, a task resume due by then, whose heap
  // slot the current task's resume record takes.
  void HandOff(SimTime until);

  SimTime now_ = 0;
  uint64_t next_event_seq_ = 1;
  uint64_t next_task_id_ = 1;
  uint64_t context_switches_ = 0;
  bool stop_requested_ = false;
  SimTime run_limit_ = 0;             // the active RunUntil bound
  bool slice_is_event_tail_ = false;  // the running slice's BeginSlice arg

  std::vector<Event> heap_;  // binary min-heap on (time, seq)
  // A deque, so that growing it moves no armed slot's Timer.
  std::deque<EventSlot> event_slots_;
  std::vector<uint32_t> free_event_slots_;

  std::vector<Core> cores_;
  Context host_ctx_{};
  Task* current_ = nullptr;
  Directive directive_ = Directive::kNone;  // left for the host to handle
  uint64_t advance_ns_ = 0;

  StackAllocator stacks_;
  // Task objects are recycled: tasks_ owns every Task ever constructed, and
  // a detached task that finishes parks its pointer in free_tasks_ for the
  // next spawn, so detached spawn/exit churn allocates nothing in steady
  // state. Joinable tasks are never recycled — their pointers stay valid
  // until the simulation dies, as the Spawn contract promises.
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<Task*> free_tasks_;

  std::vector<SmallFn<Task*(int)>> core_steal_hooks_;
  std::vector<SmallFn<void(int)>> core_enqueue_hooks_;
};

}  // namespace easyio::sim

#endif  // EASYIO_SIM_SIMULATION_H_
