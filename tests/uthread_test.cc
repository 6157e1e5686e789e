#include <gtest/gtest.h>

#include <vector>

#include "src/common/units.h"
#include "src/sim/simulation.h"
#include "src/uthread/scheduler.h"

namespace easyio::uthread {
namespace {

using sim::Simulation;
using sim::Task;

TEST(SchedulerTest, SpawnBalancesAcrossCores) {
  Simulation sim({.num_cores = 4});
  Scheduler sched(&sim, {.first_core = 0, .num_cores = 4});
  std::vector<int> cores;
  for (int i = 0; i < 8; ++i) {
    sched.Spawn([&sim, &cores] {
      cores.push_back(sim.current()->core());
      sim.Advance(10_us);  // keep the core busy so placement spreads
    });
  }
  sim.Run();
  // All four cores must have been used.
  std::vector<int> seen(4, 0);
  for (int c : cores) {
    seen[static_cast<size_t>(c)]++;
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_GT(seen[static_cast<size_t>(c)], 0) << "core " << c;
  }
}

TEST(SchedulerTest, SubsetOfCores) {
  Simulation sim({.num_cores = 8});
  Scheduler sched(&sim, {.first_core = 4, .num_cores = 2});
  std::vector<int> cores;
  for (int i = 0; i < 6; ++i) {
    sched.Spawn([&sim, &cores] { cores.push_back(sim.current()->core()); });
  }
  sim.Run();
  for (int c : cores) {
    EXPECT_GE(c, 4);
    EXPECT_LE(c, 5);
  }
}

TEST(SchedulerTest, RunWorkersJoinsAll) {
  Simulation sim({.num_cores = 2});
  Scheduler sched(&sim, {.first_core = 0, .num_cores = 2});
  int done = 0;
  sim.Spawn(0, [&] {
    sched.RunWorkers(10, [&](int id) {
      sim.Advance(1_us);
      done++;
    });
    EXPECT_EQ(done, 10);
  });
  sim.Run();
  EXPECT_EQ(done, 10);
}

TEST(SchedulerTest, YieldChargesSwitchCost) {
  Simulation sim({.num_cores = 1});
  Scheduler sched(&sim, {.first_core = 0, .num_cores = 1,
                         .switch_cost_ns = 120});
  sim::SimTime after = 0;
  sched.Spawn([&] {
    sched.Yield();
    after = sim.now();
  });
  sim.Run();
  EXPECT_GE(after, 120u);
}

TEST(SchedulerTest, WorkStealingDrainsBusyCore) {
  Simulation sim({.num_cores = 2});
  Scheduler sched(&sim, {.first_core = 0, .num_cores = 2,
                         .work_stealing = true});
  // Flood core 0; core 1 should steal some of the queued work.
  int ran_on_1 = 0;
  for (int i = 0; i < 10; ++i) {
    sched.SpawnOn(0, [&] {
      if (sim.current()->core() == 1) {
        ran_on_1++;
      }
      sim.Advance(5_us);
    });
  }
  sim.Run();
  EXPECT_GT(ran_on_1, 0);
  // With stealing, wall time is about half the serial time.
  EXPECT_LT(sim.now(), 10 * 5_us);
}

TEST(SchedulerTest, NoStealingAcrossRuntimes) {
  Simulation sim({.num_cores = 2});
  Scheduler a(&sim, {.first_core = 0, .num_cores = 1});
  Scheduler b(&sim, {.first_core = 1, .num_cores = 1});
  std::vector<int> a_cores;
  for (int i = 0; i < 4; ++i) {
    a.Spawn([&] {
      a_cores.push_back(sim.current()->core());
      sim.Advance(1_us);
    });
  }
  b.Spawn([&] { sim.Advance(1_us); });
  sim.Run();
  for (int c : a_cores) {
    EXPECT_EQ(c, 0);  // app A's uthreads never ran on app B's core
  }
}

TEST(MutexTest, MutualExclusion) {
  Simulation sim({.num_cores = 2});
  Mutex mu(&sim);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 2; ++i) {
    sim.Spawn(i, [&] {
      for (int k = 0; k < 50; ++k) {
        mu.Lock();
        in_critical++;
        max_in_critical = std::max(max_in_critical, in_critical);
        sim.Advance(100);
        in_critical--;
        mu.Unlock();
      }
    });
  }
  sim.Run();
  EXPECT_EQ(max_in_critical, 1);
}

TEST(MutexTest, FifoHandoff) {
  Simulation sim({.num_cores = 4});
  Mutex mu(&sim);
  std::vector<int> order;
  sim.Spawn(0, [&] {
    mu.Lock();
    sim.Advance(10_us);  // let waiters queue in core order
    mu.Unlock();
  });
  for (int i = 1; i < 4; ++i) {
    sim.ScheduleAt(static_cast<sim::SimTime>(i) * 100, [&sim, &mu, &order, i] {
      sim.Spawn(i, [&mu, &order, i] {
        mu.Lock();
        order.push_back(i);
        mu.Unlock();
      });
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RwLockTest, ReadersShare) {
  Simulation sim({.num_cores = 4});
  RwLock rw(&sim);
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(i, [&] {
      rw.ReadLock();
      concurrent++;
      max_concurrent = std::max(max_concurrent, concurrent);
      sim.Advance(1_us);
      concurrent--;
      rw.ReadUnlock();
    });
  }
  sim.Run();
  EXPECT_EQ(max_concurrent, 4);
}

TEST(RwLockTest, WriterExcludesReaders) {
  Simulation sim({.num_cores = 3});
  RwLock rw(&sim);
  bool writer_active = false;
  bool overlap = false;
  sim.Spawn(0, [&] {
    rw.WriteLock();
    writer_active = true;
    sim.Advance(5_us);
    writer_active = false;
    rw.WriteUnlock();
  });
  for (int i = 1; i < 3; ++i) {
    sim.Spawn(i, [&] {
      rw.ReadLock();
      overlap |= writer_active;
      rw.ReadUnlock();
    });
  }
  sim.Run();
  EXPECT_FALSE(overlap);
}

TEST(RwLockTest, WriterPreferenceAvoidsStarvation) {
  Simulation sim({.num_cores = 4});
  RwLock rw(&sim);
  sim::SimTime writer_done = 0;
  // A stream of readers; a writer arrives at 1us and must not wait for
  // readers that arrive after it.
  sim.Spawn(0, [&] {
    rw.ReadLock();
    sim.Advance(2_us);
    rw.ReadUnlock();
  });
  sim.ScheduleAt(1_us, [&] {
    sim.Spawn(1, [&] {
      rw.WriteLock();
      writer_done = sim.now();
      rw.WriteUnlock();
    });
  });
  sim.ScheduleAt(1500, [&] {
    sim.Spawn(2, [&] {
      rw.ReadLock();
      // This reader queued behind the writer.
      EXPECT_GE(sim.now(), writer_done);
      rw.ReadUnlock();
    });
  });
  sim.Run();
  EXPECT_EQ(writer_done, 2_us);
}

}  // namespace
}  // namespace easyio::uthread
