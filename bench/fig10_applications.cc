// Figure 10: throughput of the eight real-world applications (§6.3,
// Table 1) as worker cores grow, across the four filesystems.
//
// Paper shapes: EasyIO ~2.1x/2.1x/1.5x/2.3x over NOVA for Snappy, Grep,
// KNN, BFS (I/O-intensive or balanced); ~1.0-1.1x for JPGDecoder and AES
// (computation-dominated); ~2.3x for Fileserver; Webserver (high contention
// on the shared log) is the one case where OdinFS beats EasyIO. OdinFS
// declines beyond 12 worker cores (reserved delegation cores).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/apps.h"
#include "src/harness/scenario_runner.h"

namespace easyio {
namespace {

using apps::AppKind;
using apps::AppRunConfig;

const std::vector<int> kCores{1, 2, 4, 8, 12, 16};

// Set from --faults=<seed> in main before any scenario job runs; 0 = off.
uint64_t g_fault_seed = 0;

const std::vector<harness::FsKind> kKinds{
    harness::FsKind::kNova, harness::FsKind::kNovaDma, harness::FsKind::kOdin,
    harness::FsKind::kEasy};

// One independent simulation per (fs, cores) cell; the app's whole grid fans
// out across the scenario runner, then prints from the ordered results
// (skipped OdinFS cells carry a negative sentinel).
void RunApp(AppKind app, int jobs) {
  std::printf("\n-- %s (ops/s) --\n", apps::AppName(app));
  std::printf("%-9s", "fs\\cores");
  for (int c : kCores) {
    std::printf("%9d", c);
  }
  std::printf("\n");
  const size_t cols = kCores.size();
  const std::vector<double> grid =
      harness::RunIndexed(jobs, kKinds.size() * cols, [&](size_t i) {
        const harness::FsKind kind = kKinds[i / cols];
        const int cores = kCores[i % cols];
        if (kind == harness::FsKind::kOdin && cores > 12) {
          return -1.0;
        }
        AppRunConfig cfg;
        cfg.app = app;
        cfg.testbed.fs = kind;
        cfg.cores = cores;
        if (g_fault_seed != 0) {
          cfg.testbed.faults = bench::MakeBenchFaultPlan(
              g_fault_seed,
              static_cast<int>(cfg.testbed.fs_options.comp_channels));
        }
        return apps::RunApp(cfg).ops_per_sec;
      });
  double nova_best = 0;
  double easy_best = 0;
  for (size_t k = 0; k < kKinds.size(); ++k) {
    const harness::FsKind kind = kKinds[k];
    std::printf("%-9s", harness::FsKindName(kind));
    for (size_t c = 0; c < cols; ++c) {
      const double ops = grid[k * cols + c];
      if (ops < 0) {
        std::printf("%9s", "-");
        continue;
      }
      std::printf("%9.0f", ops);
      if (kind == harness::FsKind::kNova) {
        nova_best = std::max(nova_best, ops);
      }
      if (kind == harness::FsKind::kEasy) {
        easy_best = std::max(easy_best, ops);
      }
    }
    std::printf("\n");
  }
  std::printf("EasyIO/NOVA peak speedup: %.2fx\n",
              nova_best > 0 ? easy_best / nova_best : 0.0);
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  const bench::Flags flags = bench::ParseFlags(
      argc, argv, bench::Flags::kJobs | bench::Flags::kFaults);
  const int jobs = flags.jobs;
  // --faults=<seed> injects a seeded DMA fault plan into every cell's
  // testbed; seed 0 (the default) is byte-identical to no flag.
  g_fault_seed = flags.faults;
  bench::PrintHeader(
      "Figure 10: real-world application throughput vs worker cores");
  std::printf(
      "Table 1 geometry: Snappy r910K/w1.9M 1:1 | JPG r43K/w786K 1:1 (1/8\n"
      "scale) | AES r64K/w64K 1:1 | Grep r2M 1:0 | KNN r1M 1:0 | BFS r1M\n"
      "1:0 | Fileserver r1M/w~1M 1:2 | Webserver r256K/w16K 10:1\n");
  for (AppKind app :
       {AppKind::kSnappy, AppKind::kJpgDecoder, AppKind::kAes, AppKind::kGrep,
        AppKind::kKnn, AppKind::kBfs, AppKind::kFileserver,
        AppKind::kWebserver}) {
    RunApp(app, jobs);
  }
  std::printf(
      "\nExpected shape (paper): ~2x speedups for Snappy/Grep/BFS, ~1.5x\n"
      "KNN, ~1.0-1.1x for compute-bound JPG/AES, ~2.3x Fileserver; OdinFS\n"
      "wins Webserver (shared-log contention) and stops at 12 cores.\n");
  return 0;
}
