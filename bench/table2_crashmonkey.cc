// Table 2: crash-consistency test results with the CrashMonkey-style
// harness — four workloads, up to 1000 crash points each, run against
// EasyIO with orderless writes and SN-based recovery.
//
// Paper result: all tests pass (EasyIO restores a consistent state by
// discarding committed block mappings whose DMA never finished).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/crashmonkey/crash_test.h"
#include "src/harness/scenario_runner.h"

int main(int argc, char** argv) {
  using namespace easyio;
  const int jobs =
      bench::ParseFlags(argc, argv, bench::Flags::kJobs).jobs;
  bench::PrintHeader("Table 2: crash consistency with CrashMonkey");
  std::printf("%-15s %-38s %12s %8s\n", "workload", "description",
              "crash points", "passed");
  // Each workload's sweep is independent; print from the ordered results so
  // stdout is the same at any job count.
  const std::vector<crashmonkey::CrashWorkload> workloads =
      crashmonkey::StandardWorkloads(42);
  const std::vector<crashmonkey::CrashTestResult> results =
      harness::RunIndexed(jobs, workloads.size(), [&](size_t i) {
        return crashmonkey::RunCrashTest(workloads[i], /*max_points=*/1000);
      });
  bool all_ok = true;
  for (size_t i = 0; i < workloads.size(); ++i) {
    const auto& w = workloads[i];
    const auto& result = results[i];
    std::printf("%-15s %-38s %12d %8d\n", w.name.c_str(),
                w.description.c_str(), result.total_points, result.passed);
    for (const auto& f : result.failures) {
      std::printf("    FAILURE: %s\n", f.c_str());
    }
    all_ok &= result.passed == result.total_points;
  }
  std::printf("\n%s (paper: 1000/1000 for each workload)\n",
              all_ok ? "All crash points recovered consistently."
                     : "CRASH-CONSISTENCY FAILURES DETECTED.");
  return all_ok ? 0 : 1;
}
