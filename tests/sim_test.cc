#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/sim/simulation.h"

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

}  // namespace
}  // namespace easyio::sim
