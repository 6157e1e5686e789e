#include "src/harness/scenario_runner.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulation.h"

namespace easyio::harness {
namespace {

// A small deterministic simulation: two cores' tasks interleave advances and
// fold the event order into a checksum. Any cross-thread interference (shared
// kernel state, reordered events) changes the value.
uint64_t SimChecksum(uint64_t seed) {
  sim::Simulation::Options opts;
  opts.num_cores = 2;
  sim::Simulation sim(opts);
  uint64_t acc = seed;
  for (int c = 0; c < 2; ++c) {
    sim.Spawn(c, [&acc, &sim, seed, c] {
      Rng rng(seed + static_cast<uint64_t>(c));
      for (int i = 0; i < 200; ++i) {
        sim.Advance(1 + rng.Below(50));
        acc = acc * 6364136223846793005ull + sim.now() +
              static_cast<uint64_t>(c);
      }
    });
  }
  sim.ScheduleAfter(500, [&acc, &sim] { acc ^= sim.now(); });
  sim.Run();
  return acc;
}

TEST(ScenarioRunnerTest, ResultsLandInSubmissionOrder) {
  constexpr int kJobs = 4;
  constexpr size_t kN = 16;
  std::vector<int> out(kN, -1);
  ScenarioRunner runner(kJobs);
  for (size_t i = 0; i < kN; ++i) {
    const size_t idx = runner.Submit([&out, i] {
      // Later submissions finish *earlier*, so completion order is roughly
      // the reverse of submission order.
      std::this_thread::sleep_for(std::chrono::milliseconds(kN - i));
      out[i] = static_cast<int>(i);
    });
    EXPECT_EQ(idx, i);
  }
  runner.Wait();
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i)) << "slot " << i;
  }
}

TEST(ScenarioRunnerTest, SerialAndParallelResultsMatch) {
  auto fn = [](size_t i) { return SimChecksum(i + 1); };
  const std::vector<uint64_t> serial = RunIndexed(1, 32, fn);
  const std::vector<uint64_t> parallel = RunIndexed(8, 32, fn);
  EXPECT_EQ(serial, parallel);
}

TEST(ScenarioRunnerTest, ThrowingJobRunsAllAndRethrowsFirstInOrder) {
  for (int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    ScenarioRunner runner(jobs);
    for (size_t i = 0; i < 16; ++i) {
      runner.Submit([&ran, i] {
        ran.fetch_add(1);
        // Job 9 often *completes* before job 3 when parallel; submission
        // order must still decide which exception Wait() surfaces.
        if (i == 9) {
          throw std::runtime_error("job9");
        }
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("job3");
        }
      });
    }
    std::string what;
    try {
      runner.Wait();
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "job3") << "jobs=" << jobs;
    EXPECT_EQ(ran.load(), 16) << "jobs=" << jobs;

    // The runner stays usable after a throwing Wait().
    bool again = false;
    runner.Submit([&again] { again = true; });
    runner.Wait();
    EXPECT_TRUE(again) << "jobs=" << jobs;
  }
}

TEST(ScenarioRunnerTest, ConcurrentSimulationsMatchSerial) {
  // Thread-compatibility contract (src/sim/simulation.h): distinct
  // Simulation instances on distinct host threads are fully independent.
  const uint64_t want_a = SimChecksum(101);
  const uint64_t want_b = SimChecksum(202);
  for (int round = 0; round < 4; ++round) {
    uint64_t got_a = 0;
    uint64_t got_b = 0;
    std::thread ta([&got_a] { got_a = SimChecksum(101); });
    std::thread tb([&got_b] { got_b = SimChecksum(202); });
    ta.join();
    tb.join();
    EXPECT_EQ(got_a, want_a);
    EXPECT_EQ(got_b, want_b);
  }
}

TEST(ScenarioRunnerTest, DefaultJobsHonorsEnvironment) {
  const char* saved = getenv("EASYIO_JOBS");
  const std::string saved_value = saved != nullptr ? saved : "";
  setenv("EASYIO_JOBS", "3", 1);
  EXPECT_EQ(ScenarioRunner::DefaultJobs(), 3);
  setenv("EASYIO_JOBS", "0", 1);  // invalid: fall back to >= 1
  EXPECT_GE(ScenarioRunner::DefaultJobs(), 1);
  if (saved != nullptr) {
    setenv("EASYIO_JOBS", saved_value.c_str(), 1);
  } else {
    unsetenv("EASYIO_JOBS");
  }
}

// fig11-style determinism regression: a formatted (io x kind) results table
// built from ordered runner results must be byte-identical at any job count.
std::string FormatFig11LikeGrid(int jobs) {
  const size_t kRows = 5;  // "I/O sizes"
  const std::vector<uint64_t> cells =
      RunIndexed(jobs, kRows * 2, [](size_t i) { return SimChecksum(i); });
  std::string table;
  for (size_t r = 0; r < kRows; ++r) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-8zu %20llu %20llu\n", r,
                  static_cast<unsigned long long>(cells[r]),
                  static_cast<unsigned long long>(cells[kRows + r]));
    table += line;
  }
  return table;
}

TEST(ScenarioRunnerTest, Fig11LikeTableIsJobsInvariant) {
  const std::string serial = FormatFig11LikeGrid(1);
  EXPECT_EQ(serial, FormatFig11LikeGrid(4));
  EXPECT_EQ(serial, FormatFig11LikeGrid(8));
}

}  // namespace
}  // namespace easyio::harness
