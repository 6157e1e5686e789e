// Crash-consistency under DMA fault injection: every sampled crash point —
// including points inside an error/retry window, a stall, or a torn
// completion-record window — must recover to a state matching the model.
// Fault plans are deterministic, so the barrier-count pass and every replay
// see identical fault timing, and the whole sweep is reproducible run over
// run.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crashmonkey/crash_test.h"
#include "tests/standard_faults.h"

namespace easyio::crashmonkey {
namespace {

class FaultyCrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(FaultyCrashSweep, SampledPointsPassUnderInjectedFaults) {
  const auto workloads = StandardWorkloads(42);
  const auto& w = workloads[static_cast<size_t>(GetParam())];
  const dma::FaultPlan plan = StandardFaults();
  const auto result =
      RunCrashTest(w, /*max_points=*/12, DefaultCrashFsOptions(), &plan);
  EXPECT_GT(result.total_points, 0) << w.name;
  EXPECT_EQ(result.passed, result.total_points) << w.name;
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Table2Faulty, FaultyCrashSweep,
                         ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StandardWorkloads(42)[static_cast<size_t>(
                                                            info.param)]
                               .name;
                         });

TEST(CrashDuringRetryWindowTest, EveryBarrierInsideRecoveryIsConsistent) {
  // A tiny workload whose first data DMA fails twice before succeeding:
  // with max_points above the total barrier count, EVERY persist barrier is
  // a crash point — including the error-status record update, the
  // cleared-status update on each retry, and the final completion. The
  // recovered state must match the model at all of them.
  WorkloadBuilder b;
  b.Create("/retry_victim");
  Rng rng(5);
  std::vector<std::byte> data(16 * 1024);
  for (auto& x : data) {
    x = static_cast<std::byte>(rng.Next());
  }
  b.Write("/retry_victim", 0, data);
  b.Append("/retry_victim", std::vector<std::byte>(6000, std::byte{0x5C}));
  CrashWorkload w{"retry_window", "write whose DMA errors twice", b.Build()};

  dma::FaultPlan plan;
  plan.errors.push_back({/*channel=*/0, /*ordinal=*/0, /*count=*/2});
  const auto result =
      RunCrashTest(w, /*max_points=*/400, DefaultCrashFsOptions(), &plan);
  EXPECT_GT(result.total_points, 0);
  EXPECT_EQ(result.passed, result.total_points);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f;
  }
}

TEST(CrashDuringTornWindowTest, StaleRecordAtCrashDiscardsOnlyUnackedWrite) {
  // The torn-record case: the transfer finished but the persistent record
  // is stale at the crash. Recovery must treat the write as not durable —
  // which is consistent, because the waiter never woke (the wait reads only
  // the persistent record), so the application never saw the op complete.
  WorkloadBuilder b;
  b.Create("/torn_victim");
  std::vector<std::byte> data(12 * 1024, std::byte{0x7E});
  b.Write("/torn_victim", 0, data);
  b.Write("/torn_victim", 4096, std::vector<std::byte>(8192, std::byte{0x11}));
  CrashWorkload w{"torn_window", "write whose record update is torn",
                  b.Build()};

  dma::FaultPlan plan;
  plan.torn.push_back({/*channel=*/0, /*ordinal=*/0});
  const auto result =
      RunCrashTest(w, /*max_points=*/400, DefaultCrashFsOptions(), &plan);
  EXPECT_GT(result.total_points, 0);
  EXPECT_EQ(result.passed, result.total_points);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f;
  }
}

TEST(FaultSweepDeterminismTest, SamePlanSameSweepTwice) {
  const auto workloads = StandardWorkloads(42);
  const dma::FaultPlan plan = StandardFaults();
  const auto r1 =
      RunCrashTest(workloads[0], /*max_points=*/6, DefaultCrashFsOptions(),
                   &plan);
  const auto r2 =
      RunCrashTest(workloads[0], /*max_points=*/6, DefaultCrashFsOptions(),
                   &plan);
  EXPECT_EQ(r1.total_points, r2.total_points);
  EXPECT_EQ(r1.passed, r2.passed);
  EXPECT_EQ(r1.failures, r2.failures);
}

}  // namespace
}  // namespace easyio::crashmonkey
