#include "src/harness/scenario_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
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

TEST(ScenarioRunnerTest, ResultsLandInIndexOrder) {
  constexpr size_t kN = 16;
  for (const int jobs : {1, 2, 8, 20}) {  // 20: more jobs than indices
    const std::vector<size_t> out = RunIndexed(jobs, kN, [](size_t i) {
      // Later indices finish *earlier*, so completion order is roughly the
      // reverse of index order.
      std::this_thread::sleep_for(std::chrono::microseconds(500 * (kN - i)));
      return i;
    });
    ASSERT_EQ(out.size(), kN) << "jobs=" << jobs;
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(out[i], i) << "jobs=" << jobs << " slot " << i;
    }
  }
}

TEST(ScenarioRunnerTest, SerialAndParallelResultsMatch) {
  auto fn = [](size_t i) { return SimChecksum(i + 1); };
  const std::vector<uint64_t> serial = RunIndexed(1, 32, fn);
  const std::vector<uint64_t> parallel = RunIndexed(8, 32, fn);
  EXPECT_EQ(serial, parallel);
}

TEST(ScenarioRunnerTest, ThrowingJobRunsAllAndRethrowsFirstInOrder) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    std::string what;
    try {
      RunIndexed(jobs, 16, [&ran](size_t i) {
        ran.fetch_add(1);
        // Index 9 often *completes* before index 3 when parallel; index
        // order must still decide which exception surfaces.
        if (i == 9) {
          throw std::runtime_error("job9");
        }
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("job3");
        }
        return i;
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "job3") << "jobs=" << jobs;
    EXPECT_EQ(ran.load(), 16) << "jobs=" << jobs;
  }
}

TEST(ScenarioRunnerTest, SerialRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int jobs : {1, 0, -3}) {
    std::vector<size_t> order;
    const std::vector<std::thread::id> ran_on =
        RunIndexed(jobs, 8, [&order](size_t i) {
          order.push_back(i);
          return std::this_thread::get_id();
        });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "jobs=" << jobs;
    for (const std::thread::id id : ran_on) {
      EXPECT_EQ(id, caller) << "jobs=" << jobs;
    }
  }
}

// With two workers, indices 0 and 1 are claimed first and run side by side:
// each waits until both have arrived, and a later index starts only after
// that. A timeout fails the test instead of hanging it. No index runs on
// the calling thread.
TEST(ScenarioRunnerTest, FirstTwoIndicesRunTogether) {
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  struct Ran {
    bool met = true;
    std::thread::id on;
  };
  const std::vector<Ran> ran = RunIndexed(2, 6, [&](size_t i) {
    Ran r{.on = std::this_thread::get_id()};
    std::unique_lock<std::mutex> lock(mu);
    if (i < 2) {
      arrived++;
      cv.notify_all();
      r.met = cv.wait_for(lock, std::chrono::seconds(10),
                          [&arrived] { return arrived == 2; });
    } else {
      r.met = arrived == 2;
    }
    return r;
  });
  EXPECT_NE(ran[0].on, ran[1].on);
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_TRUE(ran[i].met) << "index " << i;
    EXPECT_NE(ran[i].on, caller) << "index " << i;
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

// fig11-style determinism regression: a formatted (io x kind) results table
// built from RunIndexed's ordered results must be byte-identical at any job
// count.
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
