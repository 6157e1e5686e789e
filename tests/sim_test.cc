#include <gtest/gtest.h>

#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/sim/simulation.h"
#include "src/sim/small_fn.h"

namespace easyio::sim {
namespace {

Simulation::Options Opts(int cores) {
  Simulation::Options o;
  o.num_cores = cores;
  return o;
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim(Opts(1));
  std::vector<int> order;
  sim.ScheduleAt(300, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(SimulationTest, TiesFireInScheduleOrder) {
  Simulation sim(Opts(1));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, ZeroDelayFollowUpFiresAfterQueuedTies) {
  // A handler scheduling a 0-delay follow-up while other events are queued
  // at its own instant: the follow-up runs this instant, after every entry
  // already queued there, and before anything later.
  Simulation sim(Opts(1));
  std::vector<int> order;
  sim.ScheduleAt(10, [&] {
    order.push_back(1);
    sim.ScheduleAfter(0, [&] { order.push_back(4); });
  });
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.ScheduleAt(12, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(SimulationTest, CancelPreventsFiring) {
  Simulation sim(Opts(1));
  bool fired = false;
  EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, RunUntilStopsAtBound) {
  Simulation sim(Opts(1));
  bool late = false;
  sim.ScheduleAt(5_us, [&] { late = true; });
  sim.RunUntil(1_us);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.now(), 1_us);
  sim.Run();
  EXPECT_TRUE(late);
}

TEST(SimulationTest, TaskRunsAndAdvances) {
  Simulation sim(Opts(1));
  SimTime seen_start = 0;
  SimTime seen_end = 0;
  sim.Spawn(0, [&] {
    seen_start = sim.now();
    sim.Advance(500);
    seen_end = sim.now();
  });
  sim.Run();
  EXPECT_EQ(seen_start, 0u);
  EXPECT_EQ(seen_end, 500u);
}

TEST(SimulationTest, AdvanceKeepsCoreBusy) {
  Simulation sim(Opts(1));
  bool second_ran_early = false;
  sim.Spawn(0, [&] { sim.Advance(1000); });
  sim.Spawn(0, [&] {
    // Must not start before the first task's Advance completes.
    second_ran_early = sim.now() < 1000;
  });
  sim.Run();
  EXPECT_FALSE(second_ran_early);
  EXPECT_EQ(sim.core_busy_ns(0), 1000u);
}

TEST(SimulationTest, TasksOnDifferentCoresRunConcurrently) {
  Simulation sim(Opts(2));
  SimTime end0 = 0;
  SimTime end1 = 0;
  sim.Spawn(0, [&] {
    sim.Advance(1000);
    end0 = sim.now();
  });
  sim.Spawn(1, [&] {
    sim.Advance(1000);
    end1 = sim.now();
  });
  sim.Run();
  EXPECT_EQ(end0, 1000u);
  EXPECT_EQ(end1, 1000u);  // parallel, not serialized
}

TEST(SimulationTest, YieldRotatesRunQueue) {
  Simulation sim(Opts(1));
  std::vector<int> order;
  sim.Spawn(0, [&] {
    order.push_back(1);
    sim.Yield();
    order.push_back(3);
  });
  sim.Spawn(0, [&] {
    order.push_back(2);
    sim.Yield();
    order.push_back(4);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimulationTest, BlockAndWake) {
  Simulation sim(Opts(1));
  Task* sleeper = nullptr;
  SimTime woke_at = 0;
  sleeper = sim.Spawn(0, [&] {
    sim.Block();
    woke_at = sim.now();
  });
  sim.ScheduleAt(2_us, [&] { sim.Wake(sleeper); });
  sim.Run();
  EXPECT_EQ(woke_at, 2_us);
}

TEST(SimulationTest, BlockHoldingCorePreventsOtherTasks) {
  Simulation sim(Opts(1));
  Task* holder = nullptr;
  SimTime other_started = 0;
  holder = sim.Spawn(0, [&] {
    sim.BlockHoldingCore();  // e.g. synchronous memcpy in flight
  });
  sim.Spawn(0, [&] { other_started = sim.now(); });
  sim.ScheduleAt(5_us, [&] { sim.Wake(holder); });
  sim.Run();
  // The second task cannot start until the holder released the core.
  EXPECT_GE(other_started, 5_us);
}

TEST(SimulationTest, JoinWaitsForCompletion) {
  Simulation sim(Opts(2));
  SimTime join_done = 0;
  Task* worker = sim.Spawn(1, [&] { sim.Advance(3_us); });
  sim.Spawn(0, [&] {
    sim.Join(worker);
    join_done = sim.now();
  });
  sim.Run();
  EXPECT_EQ(join_done, 3_us);
  EXPECT_TRUE(worker->finished());
}

TEST(SimulationTest, JoinFinishedTaskReturnsImmediately) {
  Simulation sim(Opts(1));
  Task* worker = sim.Spawn(0, [] {});
  SimTime join_time = kSimTimeMax;
  sim.ScheduleAt(10_us, [&] {
    sim.Spawn(0, [&] {
      sim.Join(worker);
      join_time = sim.now();
    });
  });
  sim.Run();
  EXPECT_EQ(join_time, 10_us);
}

TEST(SimulationTest, SleepForReleasesCore) {
  Simulation sim(Opts(1));
  SimTime other_ran_at = kSimTimeMax;
  SimTime sleeper_woke = 0;
  sim.Spawn(0, [&] {
    sim.SleepFor(10_us);
    sleeper_woke = sim.now();
  });
  sim.Spawn(0, [&] { other_ran_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(other_ran_at, 0u);  // ran while the first slept
  EXPECT_EQ(sleeper_woke, 10_us);
}

TEST(SimulationTest, SpawnFromInsideTask) {
  Simulation sim(Opts(1));
  SimTime child_ran = kSimTimeMax;
  sim.Spawn(0, [&] {
    sim.Advance(1_us);
    Task* child = sim.Spawn(0, [&] { child_ran = sim.now(); });
    sim.Join(child);
  });
  sim.Run();
  EXPECT_EQ(child_ran, 1_us);
}

TEST(SimulationTest, ManyTasksStressDeterminism) {
  auto run_once = [] {
    Simulation sim(Opts(4));
    uint64_t checksum = 0;
    for (int i = 0; i < 200; ++i) {
      sim.Spawn(i % 4, [&sim, &checksum, i] {
        for (int j = 0; j < 10; ++j) {
          sim.Advance(static_cast<uint64_t>(17 * (i + 1) + j));
          checksum = checksum * 31 + sim.now();
          sim.Yield();
        }
      });
    }
    sim.Run();
    return checksum;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulationTest, DetachedTaskIsReaped) {
  Simulation sim(Opts(1));
  int runs = 0;
  for (int i = 0; i < 100; ++i) {
    sim.SpawnDetached(0, [&] { runs++; });
  }
  sim.Run();
  EXPECT_EQ(runs, 100);
}

TEST(SimulationTest, PollHookRunsBeforePick) {
  Simulation sim(Opts(1));
  int polls = 0;
  sim.SetPollHook(0, [&](int core) { polls++; });
  sim.Spawn(0, [&] { sim.Yield(); });
  sim.Run();
  EXPECT_GT(polls, 0);
}

TEST(SimulationTest, StealHookMovesWork) {
  Simulation sim(Opts(2));
  // Core 0 is kept busy by a long task with two more queued behind it;
  // idle core 1 steals from core 0's run queue.
  int ran_on_core1 = 0;
  sim.SetStealHook(1, [&](int thief) { return sim.TryStealFrom(0); });
  sim.SetEnqueueHook(0, [&](int) { sim.Kick(1); });
  sim.Spawn(0, [&] { sim.Advance(100_us); });
  for (int i = 0; i < 2; ++i) {
    sim.Spawn(0, [&] {
      if (sim.current()->core() == 1) {
        ran_on_core1++;
      }
    });
  }
  sim.Run();
  EXPECT_GE(ran_on_core1, 1);
}

TEST(SimulationTest, WakeOnMigratesTask) {
  Simulation sim(Opts(2));
  bool ran_on_core1 = false;
  Task* t = sim.Spawn(0, [&] {
    sim.Block();
    ran_on_core1 = sim.current()->core() == 1;
  });
  sim.ScheduleAt(1_us, [&] { sim.WakeOn(t, 1); });
  sim.Run();
  EXPECT_TRUE(ran_on_core1);
}

TEST(SimulationTest, ContextSwitchCountGrows) {
  Simulation sim(Opts(1));
  sim.Spawn(0, [&] {
    for (int i = 0; i < 10; ++i) {
      sim.Yield();
    }
  });
  sim.Run();
  EXPECT_GE(sim.context_switches(), 10u);
}

TEST(SimulationTest, DeepStackUsage) {
  Simulation::Options o;
  o.num_cores = 1;
  o.stack_size = 512 * 1024;
  Simulation sim(o);
  uint64_t result = 0;
  std::function<uint64_t(int)> fib = [&](int n) -> uint64_t {
    volatile char pad[512];  // force real stack consumption
    pad[0] = static_cast<char>(n);
    if (n <= 1) {
      return static_cast<uint64_t>(n) + static_cast<uint64_t>(pad[0] - n);
    }
    return fib(n - 1) + fib(n - 2);
  };
  sim.Spawn(0, [&] { result = fib(18); });
  sim.Run();
  EXPECT_EQ(result, 2584u);
}

TEST(SimulationTest, RequestStopHaltsLoop) {
  Simulation sim(Opts(1));
  int fired = 0;
  sim.ScheduleAt(10, [&] {
    fired++;
    sim.RequestStop();
  });
  sim.ScheduleAt(20, [&] { fired++; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stop_requested());
}

// ---- Advance elision: an uncontended Advance moves the clock inline ----

TEST(SimulationTest, LoneTaskAdvancesWithoutSwitching) {
  Simulation sim(Opts(1));
  sim.Spawn(0, [&] {
    for (int i = 0; i < 1000; ++i) {
      sim.Advance(10);
    }
  });
  sim.Run();
  EXPECT_EQ(sim.now(), 10000u);
  // The kick-dispatched first slice switches out on its first Advance; the
  // resumed slice then runs the other 999 inline.
  EXPECT_LE(sim.context_switches(), 2u);
}

// Runs a task that advances 5 ns (a real switch: its first slice came from
// the core kick), then 100 ns, with an event at `event_at` scheduled before
// the run. Returns the order in which the event and the continuation ran.
std::vector<std::string> RaceEventAgainstAdvance(SimTime event_at,
                                                 uint64_t* switches) {
  Simulation sim(Opts(1));
  std::vector<std::string> order;
  sim.ScheduleAt(event_at, [&] {
    EXPECT_EQ(sim.now(), event_at);
    order.push_back("event");
  });
  sim.Spawn(0, [&] {
    sim.Advance(5);
    sim.Advance(100);
    EXPECT_EQ(sim.now(), 105u);
    order.push_back("task");
  });
  sim.Run();
  *switches = sim.context_switches();
  return order;
}

TEST(SimulationTest, EventDueAtAdvanceEndFiresFirst) {
  uint64_t switches = 0;
  EXPECT_EQ(RaceEventAgainstAdvance(105, &switches),
            (std::vector<std::string>{"event", "task"}));
  EXPECT_EQ(switches, 3u);  // the second Advance switched out
}

TEST(SimulationTest, EventDueAfterAdvanceEndFiresAfter) {
  uint64_t switches = 0;
  EXPECT_EQ(RaceEventAgainstAdvance(106, &switches),
            (std::vector<std::string>{"task", "event"}));
  EXPECT_EQ(switches, 2u);  // the second Advance ran inline
}

TEST(SimulationTest, AdvancePastRunUntilLimitSuspends) {
  Simulation sim(Opts(1));
  SimTime resumed_at = 0;
  sim.Spawn(0, [&] {
    sim.Advance(5);
    sim.Advance(100);  // nothing else pending, but 105 > the limit
    resumed_at = sim.now();
  });
  sim.RunUntil(50);
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_EQ(resumed_at, 0u);
  sim.RunUntil(200);
  EXPECT_EQ(resumed_at, 105u);
}

TEST(SimulationTest, AdvanceAfterRequestStopSuspends) {
  Simulation sim(Opts(1));
  bool continued = false;
  Task* t = sim.Spawn(0, [&] {
    sim.Advance(5);
    sim.RequestStop();
    sim.Advance(10);
    continued = true;
  });
  sim.Run();
  EXPECT_EQ(sim.now(), 5u);
  EXPECT_FALSE(continued);
  EXPECT_FALSE(t->finished());
}

// ---- Direct task-to-task switching ----
//
// A slice dispatched at the tail of its event (an Advance resume or a
// core-holding wake) handles its directive on its own stack and, when the
// next due record resumes a task, switches straight into it. These tests
// pin the cases that must still go back to the host.

// One entry per observation: (virtual time, who). Cores are 0-3; plain
// events log negative ids.
using Log = std::vector<std::pair<SimTime, int>>;

// Spawns one task per core of a 4-core simulation; each logs (now, core)
// and then advances 10 ns, `steps` times, so all four resume at every
// multiple of 10 and hand their cores to one another in turn.
void SpawnLockStep(Simulation& sim, Log& log, int steps) {
  for (int c = 0; c < 4; ++c) {
    sim.Spawn(c, [&sim, &log, c, steps] {
      for (int i = 0; i < steps; ++i) {
        log.emplace_back(sim.now(), c);
        sim.Advance(10);
      }
    });
  }
}

TEST(SimulationTest, LockStepTiesFireInTimeSeqOrder) {
  // Four lock-stepped cores plus two plain events per instant: one
  // scheduled up front (its seq precedes every resume due then) and one that
  // core 1 schedules just before its own Advance (its seq falls between
  // core 0's and core 1's resumes). Ties must fire in schedule order, so a
  // direct switch from core 0 may not jump over the event to core 1.
  Simulation sim(Opts(4));
  Log log;
  constexpr int kSteps = 6;
  for (int k = 1; k < kSteps; ++k) {
    sim.ScheduleAt(10 * k, [&log, &sim] { log.emplace_back(sim.now(), -1); });
  }
  for (int c = 0; c < 4; ++c) {
    sim.Spawn(c, [&sim, &log, c] {
      for (int i = 0; i < kSteps; ++i) {
        log.emplace_back(sim.now(), c);
        if (c == 1 && i + 1 < kSteps) {
          sim.ScheduleAfter(10, [&log, &sim] {
            log.emplace_back(sim.now(), -2);
          });
        }
        sim.Advance(10);
      }
    });
  }
  sim.Run();
  Log expected;
  for (int k = 0; k < kSteps; ++k) {
    const SimTime t = 10 * k;
    if (k > 0) {
      expected.emplace_back(t, -1);
    }
    expected.emplace_back(t, 0);
    if (k > 0) {
      expected.emplace_back(t, -2);
    }
    for (int c = 1; c < 4; ++c) {
      expected.emplace_back(t, c);
    }
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.now(), 10u * kSteps);
  // One slice per task per step, plus each task's last resume.
  EXPECT_EQ(sim.context_switches(), 4u * (kSteps + 1));
}

TEST(SimulationTest, DirectSwitchHonorsRunUntilLimit) {
  Log split;
  {
    Simulation sim(Opts(4));
    SpawnLockStep(sim, split, 20);
    sim.RunUntil(55);
    for (const auto& [t, who] : split) {
      EXPECT_LE(t, 55u) << "core " << who << " ran past the RunUntil limit";
    }
    EXPECT_EQ(sim.now(), 55u);
    EXPECT_EQ(split.size(), 4u * 6);  // instants 0, 10, ..., 50
    sim.RunUntil(1000);
  }
  Log whole;
  {
    Simulation sim(Opts(4));
    SpawnLockStep(sim, whole, 20);
    sim.RunUntil(1000);
  }
  EXPECT_EQ(split, whole);  // the rest ran on the next call, in order
}

TEST(SimulationTest, RequestStopPrecedesNextDirectSwitch) {
  Simulation sim(Opts(4));
  Log log;
  for (int c = 0; c < 4; ++c) {
    sim.Spawn(c, [&sim, &log, c] {
      for (int i = 0; i < 10; ++i) {
        log.emplace_back(sim.now(), c);
        if (c == 1 && sim.now() == 30) {
          sim.RequestStop();
        }
        sim.Advance(10);
      }
    });
  }
  sim.Run();
  ASSERT_FALSE(log.empty());
  // Cores 2 and 3 are due at 30 too, but the stop comes first.
  EXPECT_EQ(log.back(), std::make_pair(SimTime{30}, 1));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulationTest, FinishingTaskReturnsToHostBeforeNextResume) {
  // At t=10 core 0's task finishes while core 1's resume is due. The finish
  // goes back to the host, which releases the finished stack; only then
  // does core 1 resume, and the task it spawns reuses that stack.
  Simulation sim({.num_cores = 2,
                  .stack_size = 64 * 1024,
                  .stack_guard_pages = true,
                  .poison_stacks = true});
  Task* first = sim.SpawnDetached(0, [&sim] { sim.Advance(10); });
  bool first_finished_at_resume = false;
  size_t stacks_at_resume = 0;
  bool child_ran = false;
  sim.Spawn(1, [&] {
    sim.Advance(10);
    first_finished_at_resume = first->finished();
    stacks_at_resume = sim.stacks_created();
    sim.SpawnDetached(0, [&child_ran] { child_ran = true; });
    sim.Advance(5);
  });
  sim.Run();
  EXPECT_TRUE(first_finished_at_resume);
  EXPECT_TRUE(child_ran);
  EXPECT_EQ(stacks_at_resume, 2u);
  EXPECT_EQ(sim.stacks_created(), 2u);  // the child reused the first stack
  EXPECT_EQ(sim.now(), 15u);
}

TEST(SimulationTest, KickSliceReturnsToKick) {
  // Two tasks queue on core 0 while core 1 idles. The kick that dispatches
  // the first must get control back when that slice ends, at t=0, so the
  // enqueue hook prods core 1 and the steal hook moves the second task
  // over at the same instant, not once the first task next leaves the CPU.
  Simulation sim(Opts(2));
  std::vector<SimTime> enqueue_at;
  std::vector<SimTime> steal_at;
  SimTime second_started = kSimTimeMax;
  sim.SetEnqueueHook(0, [&](int) {
    enqueue_at.push_back(sim.now());
    sim.Kick(1);
  });
  sim.SetStealHook(1, [&](int) {
    Task* t = sim.TryStealFrom(0);
    if (t != nullptr) {
      steal_at.push_back(sim.now());
    }
    return t;
  });
  sim.Spawn(0, [&] {
    for (int i = 0; i < 10; ++i) {
      sim.Advance(100);
    }
  });
  sim.Spawn(0, [&] { second_started = sim.now(); });
  sim.Run();
  EXPECT_EQ(enqueue_at, (std::vector<SimTime>{0}));
  EXPECT_EQ(steal_at, (std::vector<SimTime>{0}));
  EXPECT_EQ(second_started, 0u);
  EXPECT_EQ(sim.now(), 1000u);
}

// ---- Cancellation (slab generation tags) ----

TEST(SimCancelTest, StaleIdDoesNotCancelRecycledSlot) {
  Simulation sim({.num_cores = 1});
  int fired = 0;
  const EventId a = sim.ScheduleAfter(10, [&fired] { fired |= 1; });
  sim.Cancel(a);  // frees a's slot for immediate reuse
  const EventId b = sim.ScheduleAfter(10, [&fired] { fired |= 2; });
  EXPECT_NE(a, b);  // same slot or not, the generation differs
  sim.Cancel(a);    // stale id: must not touch b
  sim.Cancel(a);    // double stale cancel: still a no-op
  sim.RunFor(100);
  EXPECT_EQ(fired, 2);
}

TEST(SimCancelTest, CancelAfterFireIsANoOp) {
  Simulation sim({.num_cores = 1});
  int fired = 0;
  const EventId a = sim.ScheduleAfter(10, [&fired] { fired |= 1; });
  sim.RunFor(20);
  EXPECT_EQ(fired, 1);
  const EventId b = sim.ScheduleAfter(10, [&fired] { fired |= 2; });
  sim.Cancel(a);  // a's slot may now back b; the stale id must not cancel it
  sim.RunFor(20);
  EXPECT_EQ(fired, 3);
  (void)b;
}

TEST(SimCancelTest, RandomizedScheduleCancelFire) {
  // Mixed-horizon schedule/cancel churn against the live kernel: exactly the
  // non-cancelled events fire, in (time, issue-order) sequence.
  Simulation sim({.num_cores = 1});
  std::mt19937_64 rng(2024);
  struct Rec {
    SimTime time;
    uint64_t issue;
  };
  std::vector<Rec> fired_log;
  uint64_t issue = 0;
  size_t expected = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> cancelable;
    for (int i = 0; i < 25; ++i) {
      uint64_t dt = 0;
      switch (rng() % 5) {
        case 0: dt = rng() % 64; break;
        case 1: dt = rng() % 4096; break;
        case 2: dt = rng() % 300'000; break;
        case 3: dt = rng() % 20'000'000; break;
        default: dt = 20'000'000 + rng() % 100'000'000; break;
      }
      const Rec r{sim.now() + dt, issue++};
      const EventId id =
          sim.ScheduleAfter(dt, [&fired_log, r] { fired_log.push_back(r); });
      if (rng() % 4 == 0) {
        cancelable.push_back(id);
      } else {
        expected++;
      }
    }
    // Cancel before anything from this round can have fired.
    for (const EventId id : cancelable) {
      sim.Cancel(id);
    }
    sim.RunFor(rng() % 2'000'000);
  }
  sim.Run();  // drain
  ASSERT_EQ(fired_log.size(), expected);
  for (size_t i = 1; i < fired_log.size(); ++i) {
    const Rec& prev = fired_log[i - 1];
    const Rec& cur = fired_log[i];
    ASSERT_TRUE(prev.time < cur.time ||
                (prev.time == cur.time && prev.issue < cur.issue))
        << "out of order at " << i << ": (" << prev.time << "," << prev.issue
        << ") then (" << cur.time << "," << cur.issue << ")";
  }
}

// Counts the destruction of the payload it was built with, not of the
// moved-from shells a move leaves behind.
struct DestroyProbe {
  explicit DestroyProbe(int* destroyed) : destroyed(destroyed) {}
  DestroyProbe(DestroyProbe&& other) noexcept
      : destroyed(other.destroyed), owner(std::exchange(other.owner, false)) {}
  ~DestroyProbe() {
    if (owner) {
      ++*destroyed;
    }
  }
  int* destroyed;
  bool owner = true;
};

TEST(SmallFnTest, NonTrivialCaptureIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    SmallFn<void()> a([probe = DestroyProbe(&destroyed), &calls] { ++calls; });
    SmallFn<void()> b(std::move(a));
    EXPECT_FALSE(a);
    b();
    SmallFn<void()> c;
    c = std::move(b);
    EXPECT_FALSE(b);
    c();
    EXPECT_EQ(destroyed, 0);
    c = nullptr;  // Reset
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(c);

    // Assigning over a live payload destroys it once; so does the end of
    // the scope, for both the inline and the heap-held one.
    SmallFn<void()> d([probe = DestroyProbe(&destroyed)] {});
    d = [] {};
    EXPECT_EQ(destroyed, 2);
    SmallFn<void()> e([probe = DestroyProbe(&destroyed)] {});
    SmallFn<void(), 8> heap([probe = DestroyProbe(&destroyed), &calls] {
      ++calls;
    });
    SmallFn<void(), 8> heap_moved(std::move(heap));
    heap_moved();
  }
  EXPECT_EQ(destroyed, 4);
  EXPECT_EQ(calls, 3);
}

TEST(SmallFnTest, TrivialCaptureMovesByCopy) {
  const int64_t x = 41;
  int64_t out = 0;
  auto set = [x, p = &out](int64_t add) { *p = x + add; };
  static_assert(std::is_trivially_copyable_v<decltype(set)>);
  SmallFn<void(int64_t)> a(set);
  SmallFn<void(int64_t)> b(std::move(a));
  EXPECT_FALSE(a);
  SmallFn<void(int64_t)> c;
  c = std::move(b);
  c(1);
  EXPECT_EQ(out, 42);
  c = nullptr;
  EXPECT_FALSE(c);
}

}  // namespace
}  // namespace easyio::sim
