#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/units.h"
#include "src/sim/flow_resource.h"
#include "src/sim/simulation.h"

namespace easyio::sim {
namespace {

CapacityModel FlatModel(double total_gbps) {
  CapacityModel m;
  m.cpu_aggregate = [total_gbps](int) { return total_gbps; };
  m.dma_aggregate = [total_gbps](int) { return total_gbps; };
  m.total = total_gbps;
  return m;
}

TEST(FlowResourceTest, SingleFlowTakesExpectedTime) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(1.0));  // 1 GiB/s
  SimTime done_at = 0;
  res.StartFlow(1_GB, 10.0, FlowType::kCpu, [&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(done_at), 1e9, 1e6);  // ~1 second
}

TEST(FlowResourceTest, PerFlowCapLimitsRate) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(100.0));
  SimTime done_at = 0;
  res.StartFlow(1_GB, 2.0, FlowType::kCpu, [&] { done_at = sim.now(); });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(done_at), 0.5e9, 1e6);  // capped at 2 GiB/s
}

TEST(FlowResourceTest, TwoEqualFlowsShareFairly) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(2.0));
  SimTime a_done = 0;
  SimTime b_done = 0;
  res.StartFlow(1_GB, 10.0, FlowType::kCpu, [&] { a_done = sim.now(); });
  res.StartFlow(1_GB, 10.0, FlowType::kCpu, [&] { b_done = sim.now(); });
  sim.Run();
  // Each gets 1 GiB/s; both finish at ~1s.
  EXPECT_NEAR(static_cast<double>(a_done), 1e9, 2e6);
  EXPECT_NEAR(static_cast<double>(b_done), 1e9, 2e6);
}

TEST(FlowResourceTest, WaterFillingRespectsSmallCap) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(10.0));
  SimTime small_done = 0;
  SimTime big_done = 0;
  // Small flow capped at 1 GiB/s leaves 9 GiB/s for the other.
  res.StartFlow(1_GB, 1.0, FlowType::kCpu, [&] { small_done = sim.now(); });
  res.StartFlow(9_GB, 100.0, FlowType::kCpu, [&] { big_done = sim.now(); });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(small_done), 1e9, 5e6);
  EXPECT_NEAR(static_cast<double>(big_done), 1e9, 5e6);
}

TEST(FlowResourceTest, LateJoinerSlowsExisting) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(2.0));
  SimTime a_done = 0;
  res.StartFlow(2_GB, 10.0, FlowType::kCpu, [&] { a_done = sim.now(); });
  // At t=0.5s, flow A has moved 1 GiB. Then B joins; both run at 1 GiB/s.
  sim.ScheduleAt(500_ms, [&] {
    res.StartFlow(1_GB, 10.0, FlowType::kCpu, [] {});
  });
  sim.Run();
  // A needs another 1 GiB at 1 GiB/s => done at 1.5s.
  EXPECT_NEAR(static_cast<double>(a_done), 1.5e9, 5e6);
}

TEST(FlowResourceTest, CompletionFreesBandwidth) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(2.0));
  SimTime b_done = 0;
  res.StartFlow(1_GB, 10.0, FlowType::kCpu, [] {});
  res.StartFlow(2_GB, 10.0, FlowType::kCpu, [&] { b_done = sim.now(); });
  sim.Run();
  // Both at 1 GiB/s until A finishes at t=1s; B then runs at 2 GiB/s for its
  // remaining 1 GiB => done at 1.5s.
  EXPECT_NEAR(static_cast<double>(b_done), 1.5e9, 5e6);
}

TEST(FlowResourceTest, TypeAggregatesAreSeparate) {
  Simulation sim({.num_cores = 1});
  CapacityModel m;
  m.cpu_aggregate = [](int) { return 1.0; };
  m.dma_aggregate = [](int) { return 3.0; };
  m.total = 10.0;
  FlowResource res(&sim, "w", m);
  SimTime cpu_done = 0;
  SimTime dma_done = 0;
  res.StartFlow(1_GB, 10.0, FlowType::kCpu, [&] { cpu_done = sim.now(); });
  res.StartFlow(3_GB, 10.0, FlowType::kDma, [&] { dma_done = sim.now(); });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(cpu_done), 1e9, 5e6);
  EXPECT_NEAR(static_cast<double>(dma_done), 1e9, 5e6);
}

TEST(FlowResourceTest, TotalCeilingScalesDown) {
  Simulation sim({.num_cores = 1});
  CapacityModel m;
  m.cpu_aggregate = [](int) { return 4.0; };
  m.dma_aggregate = [](int) { return 4.0; };
  m.total = 4.0;  // both types together cannot exceed 4
  FlowResource res(&sim, "w", m);
  SimTime cpu_done = 0;
  res.StartFlow(1_GB, 10.0, FlowType::kCpu, [&] { cpu_done = sim.now(); });
  res.StartFlow(1_GB, 10.0, FlowType::kDma, [] {});
  sim.Run();
  // Each type would get 4; scaled to 2 each.
  EXPECT_NEAR(static_cast<double>(cpu_done), 0.5e9, 5e6);
}

TEST(FlowResourceTest, CompositionDependentCapacity) {
  Simulation sim({.num_cores = 1});
  CapacityModel m;
  // Models Optane CPU-write collapse: 2 writers halve the total.
  m.cpu_aggregate = [](int n) { return n >= 2 ? 1.0 : 2.0; };
  m.dma_aggregate = [](int) { return 0.0; };
  m.total = 100.0;
  FlowResource res(&sim, "w", m);
  SimTime a_done = 0;
  res.StartFlow(1_GB, 10.0, FlowType::kCpu, [&] { a_done = sim.now(); });
  res.StartFlow(10_GB, 10.0, FlowType::kCpu, [] {});
  sim.Run();
  // Total is 1 GiB/s shared by 2 => A moves at 0.5 GiB/s => 2s.
  EXPECT_NEAR(static_cast<double>(a_done), 2e9, 1e7);
}

TEST(FlowResourceTest, ProgressTracksPartialTransfer) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(1.0));
  auto id = res.StartFlow(1_GB, 10.0, FlowType::kCpu, [] {});
  sim.RunUntil(250_ms);
  EXPECT_NEAR(res.Progress(id), 0.25, 0.01);
  sim.RunUntil(750_ms);
  EXPECT_NEAR(res.Progress(id), 0.75, 0.01);
  sim.Run();
  EXPECT_EQ(res.Progress(id), 1.0);  // completed flows report 1.0
}

TEST(FlowResourceTest, CancelReturnsProgressAndFreesBandwidth) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(2.0));
  SimTime b_done = 0;
  auto a = res.StartFlow(4_GB, 10.0, FlowType::kCpu, [] {
    ADD_FAILURE() << "cancelled flow must not complete";
  });
  res.StartFlow(2_GB, 10.0, FlowType::kCpu, [&] { b_done = sim.now(); });
  sim.ScheduleAt(1_s, [&] {
    const double progress = res.CancelFlow(a);
    EXPECT_NEAR(progress, 0.25, 0.01);  // 1 GiB of 4 moved at 1 GiB/s
  });
  sim.Run();
  // B: 1 GiB in the first second, then 1 GiB at full 2 GiB/s => 1.5s.
  EXPECT_NEAR(static_cast<double>(b_done), 1.5e9, 5e6);
}

TEST(FlowResourceTest, ZeroByteFlowCompletesImmediately) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(1.0));
  bool done = false;
  res.StartFlow(0, 10.0, FlowType::kCpu, [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0u);
}

// Flows finishing at one instant run their callbacks in start order, not in
// the per-type, per-cap order the water-fill keeps them in.
TEST(FlowResourceTest, SameInstantCompletionsRunInStartOrder) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(1.0));
  std::vector<int> order;
  res.StartFlow(0, 5.0, FlowType::kDma, [&] { order.push_back(1); });
  res.StartFlow(0, 10.0, FlowType::kCpu, [&] { order.push_back(2); });
  res.StartFlow(0, 1.0, FlowType::kCpu, [&] { order.push_back(3); });
  res.StartFlow(0, 2.0, FlowType::kDma, [&] { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 0u);
}

TEST(FlowResourceTest, ChainedFlowsFromCallback) {
  // A DMA channel starts the next descriptor from the completion callback.
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(1.0));
  SimTime second_done = 0;
  res.StartFlow(1_GB, 10.0, FlowType::kDma, [&] {
    res.StartFlow(1_GB, 10.0, FlowType::kDma,
                  [&] { second_done = sim.now(); });
  });
  sim.Run();
  EXPECT_NEAR(static_cast<double>(second_done), 2e9, 5e6);
}

TEST(FlowResourceTest, ThrottledToZeroStalls) {
  Simulation sim({.num_cores = 1});
  CapacityModel m;
  m.cpu_aggregate = [](int) { return 0.0; };  // fully suspended
  m.dma_aggregate = [](int) { return 0.0; };
  m.total = 10.0;
  FlowResource res(&sim, "w", m);
  bool done = false;
  res.StartFlow(1_KB, 10.0, FlowType::kCpu, [&] { done = true; });
  sim.RunUntil(10_s);
  EXPECT_FALSE(done);
}

TEST(FlowResourceTest, BytesCompletedAccounting) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(1.0));
  res.StartFlow(1_MB, 10.0, FlowType::kCpu, [] {});
  res.StartFlow(2_MB, 10.0, FlowType::kCpu, [] {});
  sim.Run();
  EXPECT_EQ(res.bytes_completed(), 3_MB);
}

TEST(FlowResourceTest, ManySmallFlowsAggregateThroughput) {
  Simulation sim({.num_cores = 1});
  FlowResource res(&sim, "w", FlatModel(6.6));
  int completions = 0;
  // 1000 x 64KB sequentially-chained on 4 "channels".
  std::function<void(int, int)> chain = [&](int chan, int remaining) {
    if (remaining == 0) {
      return;
    }
    res.StartFlow(64_KB, 10.0, FlowType::kDma, [&, chan, remaining] {
      completions++;
      chain(chan, remaining - 1);
    });
  };
  for (int c = 0; c < 4; ++c) {
    chain(c, 250);
  }
  sim.Run();
  EXPECT_EQ(completions, 1000);
  const double secs = static_cast<double>(sim.now()) / 1e9;
  EXPECT_NEAR(GibPerSec(1000 * 64_KB, sim.now()), 6.6, 0.2);
  EXPECT_GT(secs, 0.0);
}

}  // namespace
}  // namespace easyio::sim
