// bench::ParseFlags, the one argv parser every figure bench uses.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace easyio::bench {
namespace {

constexpr unsigned kAll = Flags::kJobs | Flags::kFaults | Flags::kTrace;

Flags Parse(std::initializer_list<const char*> args, unsigned accepts,
            uint32_t default_trace_sample = 1) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (const char* a : args) {
    argv.push_back(const_cast<char*>(a));
  }
  return ParseFlags(static_cast<int>(argv.size()), argv.data(), accepts,
                    default_trace_sample);
}

TEST(BenchFlagsTest, ParsesEveryFlag) {
  const Flags f = Parse(
      {"--trace=/tmp/t", "--jobs=5", "--faults=7", "--trace-sample=4"}, kAll);
  EXPECT_EQ(f.jobs, 5);
  EXPECT_EQ(f.faults, 7u);
  EXPECT_TRUE(f.tracing());
  EXPECT_EQ(f.trace, "/tmp/t");
  EXPECT_EQ(f.trace_sample, 4u);
}

TEST(BenchFlagsTest, DefaultsComeFromBenchAndHost) {
  const Flags f = Parse({}, kAll, /*default_trace_sample=*/32);
  EXPECT_EQ(f.jobs,
            static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  EXPECT_EQ(f.faults, 0u);
  EXPECT_FALSE(f.tracing());
  EXPECT_EQ(f.trace_sample, 32u);
}

TEST(BenchFlagsTest, RejectsUnknownArgument) {
  EXPECT_EXIT(Parse({"--fault=7"}, kAll), testing::ExitedWithCode(2),
              "unrecognized argument '--fault=7'\nusage: bench \\[--jobs");
  EXPECT_EXIT(Parse({"--smoke"}, kAll), testing::ExitedWithCode(2), "usage");
}

TEST(BenchFlagsTest, RejectsFlagTheBenchDoesNotTake) {
  // A trace-only bench (fig01) must not accept --jobs or --faults, and a
  // bench with no flags (fig02) accepts nothing.
  EXPECT_EXIT(Parse({"--faults=7"}, Flags::kTrace),
              testing::ExitedWithCode(2),
              "usage: bench \\[--trace=<path>\\] \\[--trace-sample=<N>\\]\n");
  EXPECT_EXIT(Parse({"--jobs=4"}, 0), testing::ExitedWithCode(2),
              "usage: bench\n");
}

TEST(BenchFlagsTest, RejectsMalformedValue) {
  for (const char* bad : {"--jobs=0", "--jobs=x", "--jobs=4x", "--faults=",
                          "--faults=-1", "--trace-sample=0"}) {
    SCOPED_TRACE(bad);
    EXPECT_EXIT(Parse({bad}, kAll), testing::ExitedWithCode(2), "usage");
  }
}

}  // namespace
}  // namespace easyio::bench
