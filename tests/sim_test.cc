#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
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

// A run stopped from its own actions every `k`-th one (never if k is 0)
// and resumed each time. Core 0 has a lone advancer, whose Advances are
// elided unless a stop is pending, and a task that yields to it; core 1 has
// a sleeper and a task that holds its core through a timed wake; plain
// timers interleave. Returns every action's (time, who) and the number of
// stops.
std::pair<Log, int> RunStoppedEvery(int k) {
  Simulation sim(Opts(2));
  Log log;
  int actions = 0;
  auto note = [&](int who) {
    log.emplace_back(sim.now(), who);
    if (k > 0 && ++actions % k == 0) {
      sim.RequestStop();
    }
  };
  sim.Spawn(0, [&] {
    for (int i = 0; i < 40; ++i) {
      note(0);
      sim.Advance(7);
    }
  });
  sim.Spawn(0, [&] {
    for (int i = 0; i < 12; ++i) {
      note(1);
      sim.Advance(3);
      sim.Yield();
    }
  });
  sim.Spawn(1, [&] {
    for (int i = 0; i < 15; ++i) {
      note(2);
      sim.SleepFor(11);
    }
  });
  sim.Spawn(1, [&] {
    for (int i = 0; i < 15; ++i) {
      note(3);
      sim.ScheduleAfter(9, [&sim, t = sim.current()] { sim.Wake(t); });
      sim.BlockHoldingCore();
      sim.Advance(2);
    }
  });
  for (SimTime t = 5; t < 300; t += 13) {
    sim.ScheduleAt(t, [&note] { note(-1); });
  }
  sim.Run();
  int stops = 0;
  while (sim.stop_requested()) {
    stops++;
    sim.Resume();
  }
  return {log, stops};
}

TEST(SimulationTest, StopAndResumeIsTransparent) {
  const auto [whole, no_stops] = RunStoppedEvery(0);
  ASSERT_EQ(no_stops, 0);
  for (const int k : {1, 2, 3, 5, 8}) {
    const auto [split, stops] = RunStoppedEvery(k);
    EXPECT_GE(stops, static_cast<int>(whole.size()) / k - 1) << "k=" << k;
    EXPECT_EQ(split, whole) << "stopped every " << k << " actions";
  }
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

// ---- Replace-top hand-off ----
//
// An Advance that cannot be elided, in a tail slice with no stop pending,
// hands its core to the earliest record when that is a task resume due by
// the Advance's end and within the RunUntil limit: its own resume record
// takes the popped record's heap slot. These tests pin the order that must
// come out, the cases that still return to the host, and the exact switch
// and record counts (hand-computed from the pushes each step makes).

// Spawns one task per entry of `delays`, on core i for entry i. Each logs
// (now, core) before each of its Advances and once more when done.
void SpawnAdvancers(Simulation& sim, Log& log,
                    const std::vector<std::vector<uint64_t>>& delays) {
  for (size_t c = 0; c < delays.size(); ++c) {
    const int core = static_cast<int>(c);
    sim.Spawn(core, [&sim, &log, core, steps = delays[c]] {
      for (const uint64_t ns : steps) {
        log.emplace_back(sim.now(), core);
        sim.Advance(ns);
      }
      log.emplace_back(sim.now(), core);
    });
  }
}

TEST(SimulationTest, HandOffRunsRecordDueAtAdvanceEndFirst) {
  // At 7 core 1 advances to 15, where core 0's resume is due: that record
  // was issued first, so core 0 runs at 15 before core 1 does. At 18 core
  // 0 advances to 22 while core 1's resume waits at 35: nothing is due by
  // 22, so core 0 runs on inline and core 1 resumes only at 35.
  Simulation sim(Opts(2));
  Log log;
  SpawnAdvancers(sim, log, {{5, 10, 3, 4}, {7, 8, 20}});
  sim.Run();
  EXPECT_EQ(log, (Log{{0, 0}, {0, 1}, {5, 0}, {7, 1}, {15, 0}, {15, 1},
                      {18, 0}, {22, 0}, {35, 1}}));
  EXPECT_EQ(sim.now(), 35u);
  // Slices: 2 kick-dispatched, 2 host resumes (at 5 and 35) and 4
  // hand-offs (at 7, 15 twice and 18).
  EXPECT_EQ(sim.context_switches(), 8u);
  // Records: 2 spawn kicks, 6 resumes pushed (5, 7, 15, 15, 18, 35) and 2
  // kicks when the tasks finish; the Advance to 22 pushed none.
  EXPECT_EQ(sim.events_scheduled(), 10u);
}

TEST(SimulationTest, HandOffKeepsSameTimeTiesInIssueOrder) {
  // Core 2's resume at 20 is issued at 4, before core 0's and core 1's
  // (issued at 10), so at 20 core 2 runs first; at 10 core 0's and core
  // 1's resumes, issued at 0 in core order, run in that order.
  Simulation sim(Opts(3));
  Log log;
  SpawnAdvancers(sim, log, {{10, 10}, {10, 10}, {4, 16}});
  sim.Run();
  EXPECT_EQ(log, (Log{{0, 0}, {0, 1}, {0, 2}, {4, 2}, {10, 0}, {10, 1},
                      {20, 2}, {20, 0}, {20, 1}}));
  // 3 kick slices, the host's resumes of core 2 at 4 and of cores 0 and 1
  // at 20, and hand-offs at 10 (twice) and 20.
  EXPECT_EQ(sim.context_switches(), 9u);
  // 3 spawn kicks, 6 resumes, 3 finish kicks.
  EXPECT_EQ(sim.events_scheduled(), 12u);
}

TEST(SimulationTest, HandOffLeavesPendingStopToHost) {
  // Core 1 requests a stop at 7 and then advances to 15; core 0's resume
  // is due at 15, but the stop returns to the host first. Resuming runs
  // the rest as the unstopped run does, with the same counts.
  auto run = [](bool stop, Log* log, uint64_t* switches, uint64_t* events) {
    Simulation sim(Opts(2));
    sim.Spawn(0, [&] {
      log->emplace_back(sim.now(), 0);
      sim.Advance(5);
      log->emplace_back(sim.now(), 0);
      sim.Advance(10);
      log->emplace_back(sim.now(), 0);
    });
    sim.Spawn(1, [&] {
      log->emplace_back(sim.now(), 1);
      sim.Advance(7);
      log->emplace_back(sim.now(), 1);
      if (stop) {
        sim.RequestStop();
      }
      sim.Advance(8);
      log->emplace_back(sim.now(), 1);
    });
    sim.Run();
    if (stop) {
      EXPECT_TRUE(sim.stop_requested());
      EXPECT_EQ(sim.now(), 7u);
      EXPECT_EQ(*log, (Log{{0, 0}, {0, 1}, {5, 0}, {7, 1}}));
      sim.Resume();
    }
    *switches = sim.context_switches();
    *events = sim.events_scheduled();
  };
  Log whole;
  uint64_t whole_switches = 0;
  uint64_t whole_events = 0;
  run(false, &whole, &whole_switches, &whole_events);
  EXPECT_EQ(whole, (Log{{0, 0}, {0, 1}, {5, 0}, {7, 1}, {15, 0}, {15, 1}}));
  EXPECT_EQ(whole_switches, 6u);
  EXPECT_EQ(whole_events, 8u);
  Log split;
  uint64_t split_switches = 0;
  uint64_t split_events = 0;
  run(true, &split, &split_switches, &split_events);
  EXPECT_EQ(split, whole);
  EXPECT_EQ(split_switches, whole_switches);
  EXPECT_EQ(split_events, whole_events);
}

TEST(SimulationTest, HandOffStopsAtRunUntilLimit) {
  // With the loop's limit at 12, core 0 advancing at 5 to 15 may not hand
  // off to core 1's resume at 13: it returns to the host, which stops. The
  // next RunUntil runs what one unlimited run does, with the same counts.
  const std::vector<std::vector<uint64_t>> delays = {{5, 10}, {13, 5}};
  const Log want = {{0, 0}, {0, 1}, {5, 0}, {13, 1}, {15, 0}, {18, 1}};
  Simulation split(Opts(2));
  Log split_log;
  SpawnAdvancers(split, split_log, delays);
  split.RunUntil(12);
  EXPECT_EQ(split_log, (Log{{0, 0}, {0, 1}, {5, 0}}));
  EXPECT_EQ(split.now(), 12u);
  split.RunUntil(100);
  EXPECT_EQ(split_log, want);
  Simulation whole(Opts(2));
  Log whole_log;
  SpawnAdvancers(whole, whole_log, delays);
  whole.Run();
  EXPECT_EQ(whole_log, want);
  for (const Simulation* sim : {&split, &whole}) {
    EXPECT_EQ(sim->context_switches(), 6u);
    EXPECT_EQ(sim->events_scheduled(), 8u);
  }
}

TEST(SimulationTest, HandOffLeavesKicksAndCallbacksToHost) {
  // At 5 core 0 schedules a callback for 8 and advances to 15: the
  // callback is due first and runs on the host, and core 1's resume at 12
  // is dispatched by the host after it. At 15 core 0 spawns a task on idle
  // core 1 and advances to 16: the kick due at 15 runs first, on the host,
  // and dispatches the new task before core 0 resumes.
  Simulation sim(Opts(2));
  Log log;
  sim.Spawn(0, [&] {
    log.emplace_back(sim.now(), 0);
    sim.Advance(5);
    log.emplace_back(sim.now(), 0);
    sim.ScheduleAt(8, [&] {
      EXPECT_FALSE(sim.in_task());
      log.emplace_back(sim.now(), -1);
    });
    sim.Advance(10);
    log.emplace_back(sim.now(), 0);
    sim.SpawnDetached(1, [&] { log.emplace_back(sim.now(), 2); });
    sim.Advance(1);
    log.emplace_back(sim.now(), 0);
  });
  sim.Spawn(1, [&] {
    log.emplace_back(sim.now(), 1);
    sim.Advance(3);
    log.emplace_back(sim.now(), 1);
    sim.Advance(9);
    log.emplace_back(sim.now(), 1);
  });
  sim.Run();
  EXPECT_EQ(log, (Log{{0, 0}, {0, 1}, {3, 1}, {5, 0}, {8, -1}, {12, 1},
                      {15, 0}, {15, 2}, {16, 0}}));
  // Slices: 3 kick-dispatched, 4 host resumes (at 3, 12, 15 and 16) and
  // one hand-off (core 1 at 3 to core 0's resume at 5).
  EXPECT_EQ(sim.context_switches(), 8u);
  // Records: 2 spawn kicks, 5 resumes (at 3, 5, 12, 15 and 16), the
  // callback, the new task's kick and 3 kicks when tasks finish.
  EXPECT_EQ(sim.events_scheduled(), 12u);
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

// ---- Timers (re-armable records) ----

// A fired record: when it fired and the schedule order it was issued in.
struct Fired {
  SimTime time;
  uint64_t issue;
  bool operator==(const Fired&) const = default;
};

// A Timer record's action: logs (now, tag), the tag being its issue number.
struct TimerLog {
  Simulation* sim;
  std::vector<Fired>* log;
};
void LogTimerFire(void* arg, uint64_t issue) {
  auto* l = static_cast<TimerLog*>(arg);
  l->log->push_back({l->sim->now(), issue});
}

TEST(SimTimerTest, RandomizedRearmDisarmFire) {
  // Rearm/Disarm churn on a few Timers mixed with ScheduleAfter/Cancel,
  // checked against a reference list of live records: exactly those fire,
  // in (time, issue-order) sequence, and a Timer is armed exactly while its
  // last record is live.
  Simulation sim({.num_cores = 1});
  std::mt19937_64 rng(2026);
  std::vector<Fired> fired_log;
  TimerLog timer_log{&sim, &fired_log};
  constexpr int kTimers = 4;
  std::vector<Simulation::Timer> timers(kTimers);
  std::vector<uint64_t> timer_issue(kTimers, 0);  // its live record, or 0
  std::map<uint64_t, SimTime> live;                // issue -> time
  std::vector<std::pair<EventId, uint64_t>> ids;   // every slab event
  uint64_t issue = 0;
  auto delay = [&rng]() -> uint64_t {
    switch (rng() % 4) {
      case 0: return rng() % 8;
      case 1: return rng() % 512;
      case 2: return rng() % 50'000;
      default: return rng() % 5'000'000;
    }
  };
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 20; ++i) {
      const int k = static_cast<int>(rng() % kTimers);
      switch (rng() % 4) {
        case 0: {  // Rearm: the timer's old record, if any, is gone
          live.erase(timer_issue[k]);
          const SimTime t = sim.now() + delay();
          timer_issue[k] = ++issue;
          live[issue] = t;
          sim.Rearm(timers[k], t, &LogTimerFire, &timer_log, issue);
          break;
        }
        case 1:  // Disarm
          live.erase(timer_issue[k]);
          timer_issue[k] = 0;
          sim.Disarm(timers[k]);
          break;
        case 2: {  // a slab event
          const SimTime t = sim.now() + delay();
          const Fired r{t, ++issue};
          live[issue] = t;
          ids.emplace_back(sim.ScheduleAt(
              t, [&fired_log, r] { fired_log.push_back(r); }), issue);
          break;
        }
        default:  // Cancel any slab event, fired or not
          if (!ids.empty()) {
            const auto& [id, cancelled] = ids[rng() % ids.size()];
            live.erase(cancelled);
            sim.Cancel(id);
          }
          break;
      }
    }
    for (int k = 0; k < kTimers; ++k) {
      ASSERT_EQ(timers[k].armed(), live.contains(timer_issue[k])) << k;
    }
    // What must fire in this run: every live record due by its limit.
    const SimTime limit = sim.now() + rng() % 200'000;
    std::vector<Fired> expected;
    for (auto it = live.begin(); it != live.end();) {
      if (it->second <= limit) {
        expected.push_back({it->second, it->first});
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const Fired& a, const Fired& b) {
                return a.time != b.time ? a.time < b.time : a.issue < b.issue;
              });
    fired_log.clear();
    sim.RunUntil(limit);
    ASSERT_EQ(fired_log, expected) << "round " << round;
  }
  std::vector<Fired> expected;
  for (const auto& [i, t] : live) {
    expected.push_back({t, i});
  }
  std::sort(expected.begin(), expected.end(),
            [](const Fired& a, const Fired& b) {
              return a.time != b.time ? a.time < b.time : a.issue < b.issue;
            });
  fired_log.clear();
  sim.Run();  // drain
  EXPECT_EQ(fired_log, expected);
  for (const Simulation::Timer& timer : timers) {
    EXPECT_FALSE(timer.armed());
  }
}

TEST(SimTimerTest, DestroyedArmedTimerLeavesNothingToFire) {
  Simulation sim({.num_cores = 1});
  std::vector<Fired> fired_log;
  TimerLog timer_log{&sim, &fired_log};
  {
    Simulation::Timer timer;
    sim.Rearm(timer, 10, &LogTimerFire, &timer_log, 1);
    EXPECT_TRUE(timer.armed());
  }
  sim.Run();
  EXPECT_TRUE(fired_log.empty());
  EXPECT_EQ(sim.now(), 0u);  // no record was left to move the clock
}

TEST(SimTimerTest, TimerOutlivesItsSimulation) {
  // Declared first, so it is destroyed after the simulation it was armed
  // on: the dying simulation detaches it, and its own destructor then
  // touches nothing (ASan checks).
  Simulation::Timer timer;
  auto sim = std::make_unique<Simulation>(Simulation::Options{.num_cores = 1});
  std::vector<Fired> fired_log;
  TimerLog timer_log{sim.get(), &fired_log};
  sim->Rearm(timer, 10, &LogTimerFire, &timer_log, 1);
  EXPECT_TRUE(timer.armed());
  sim.reset();
  EXPECT_FALSE(timer.armed());
  EXPECT_TRUE(fired_log.empty());
}

TEST(SimTimerTest, RearmPastAdvanceEndKeepsElision) {
  // A timer due inside an Advance and rearmed past its end, before the
  // Advance, leaves nothing due inside it: the clock moves inline.
  Simulation sim({.num_cores = 1});
  std::vector<Fired> fired_log;
  TimerLog timer_log{&sim, &fired_log};
  Simulation::Timer timer;
  sim.Rearm(timer, 50, &LogTimerFire, &timer_log, 1);
  uint64_t switches_before = 0;
  uint64_t switches_after = 0;
  sim.Spawn(0, [&] {
    sim.Advance(5);  // the kick-dispatched slice switches out here
    switches_before = sim.context_switches();
    sim.Rearm(timer, 200, &LogTimerFire, &timer_log, 2);
    sim.Advance(100);
    switches_after = sim.context_switches();
    EXPECT_EQ(sim.now(), 105u);
  });
  sim.Run();
  EXPECT_EQ(switches_after, switches_before);
  EXPECT_EQ(fired_log, (std::vector<Fired>{{200, 2}}));
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
