// Figure 9: throughput vs average/P99 latency as worker cores grow, for
// FxMark DWAL (private-file writes) and DRBL (private-file reads) at 16K and
// 64K, across the four filesystems — plus the embedded "cores at peak"
// tables.
//
// Paper shapes: EasyIO peaks write throughput with ~6 cores (16K) / ~2 cores
// (64K) vs NOVA's 16 (63%/88% core savings); EasyIO peak write throughput
// slightly above NOVA's and stable at high core counts while NOVA and
// NOVA-DMA collapse; EasyIO read latency is *higher* than NOVA's under load;
// OdinFS is capped at 12 worker cores.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/fxmark/fxmark.h"
#include "src/harness/scenario_runner.h"

namespace easyio {
namespace {

using fxmark::RunConfig;
using fxmark::Workload;

const std::vector<int> kCores{1, 2, 4, 6, 8, 12, 16, 20, 24};

// Every (fs, core-count) sweep point is an independent simulation; the
// panel's four sweeps fan out together across the scenario runner (the
// per-sweep results stay in core_counts order, so the table is byte-
// identical for any jobs value).
void RunPanel(Workload workload, uint64_t io_size,
              const bench::Flags& flags) {
  std::printf("\n-- %s throughput vs latency, %s I/O --\n",
              fxmark::WorkloadName(workload), bench::SizeName(io_size).c_str());
  std::printf("%-9s %5s %10s %10s %10s %10s\n", "fs", "cores", "Kops/s",
              "avg_us", "p99_us", "GiB/s");

  struct PeakRow {
    harness::FsKind fs;
    int cores_at_peak;
    double peak_kops;
  };
  std::vector<PeakRow> peaks;

  const std::vector<harness::FsKind> kinds{
      harness::FsKind::kNova, harness::FsKind::kNovaDma,
      harness::FsKind::kOdin, harness::FsKind::kEasy};
  // Flatten the panel into one (fs, core-count) job list so a single runner
  // keeps all host threads fed even when one filesystem's sweep is short.
  struct SweepCase {
    harness::FsKind fs;
    int cores;
  };
  std::vector<SweepCase> grid;
  for (harness::FsKind kind : kinds) {
    for (int c : kCores) {
      if (kind == harness::FsKind::kOdin && c > 12) {
        // 12-per-node reservation leaves at most 12 worker cores (§6.1).
        continue;
      }
      grid.push_back({kind, c});
    }
  }
  const std::vector<fxmark::CoreSweepPoint> points =
      harness::RunIndexed(flags.jobs, grid.size(), [&](size_t i) {
        RunConfig cfg;
        cfg.testbed.fs = grid[i].fs;
        cfg.workload = workload;
        cfg.io_size = io_size;
        cfg.uthreads_per_core = 2;  // §6.2: uthreads = 2x cores for EasyIO
        cfg.cores = grid[i].cores;
        cfg.testbed.faults = bench::MakeBenchFaultPlan(
            flags.faults,
            static_cast<int>(cfg.testbed.fs_options.comp_channels));
        return fxmark::CoreSweepPoint{grid[i].cores, fxmark::Run(cfg)};
      });
  size_t next_point = 0;
  for (size_t k = 0; k < kinds.size(); ++k) {
    const harness::FsKind kind = kinds[k];
    std::vector<fxmark::CoreSweepPoint> sweep;
    while (next_point < points.size() &&
           grid[next_point].fs == kind) {
      sweep.push_back(points[next_point++]);
    }
    for (const auto& point : sweep) {
      std::printf("%-9s %5d %10.1f %10.2f %10.2f %10.2f\n",
                  harness::FsKindName(kind), point.cores,
                  point.result.mops * 1e3, point.result.avg_latency_ns / 1e3,
                  point.result.p99_ns / 1e3, point.result.gib_per_sec);
    }
    double peak = 0;
    for (const auto& point : sweep) {
      peak = std::max(peak, point.result.mops * 1e3);
    }
    peaks.push_back({kind, fxmark::CoresAtPeak(sweep, 0.95), peak});
  }

  std::printf("cores-at-peak(95%%):");
  for (const auto& row : peaks) {
    std::printf("  %s=%d(%.0fK)", harness::FsKindName(row.fs),
                row.cores_at_peak, row.peak_kops);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  const bench::Flags flags = bench::ParseFlags(
      argc, argv, bench::Flags::kJobs | bench::Flags::kFaults);
  // --faults=<seed> injects a seeded DMA fault plan into every sweep
  // point's testbed; seed 0 (the default) is byte-identical to no flag.
  bench::PrintHeader(
      "Figure 9: throughput vs latency, core sweep (FxMark DWAL/DRBL)");
  RunPanel(fxmark::Workload::kDWAL, 16_KB, flags);
  RunPanel(fxmark::Workload::kDWAL, 64_KB, flags);
  RunPanel(fxmark::Workload::kDRBL, 16_KB, flags);
  RunPanel(fxmark::Workload::kDRBL, 64_KB, flags);
  std::printf(
      "\nExpected shape (paper): writes — EasyIO peaks with few cores (6 at\n"
      "16K, 2 at 64K) vs NOVA's 16; NOVA/NOVA-DMA throughput collapses at\n"
      "high core counts, EasyIO's only dips slightly. reads — EasyIO reaches\n"
      "the highest peak but with higher latency; NOVA-DMA peaks early at\n"
      "less than half of EasyIO's read throughput.\n");
  return 0;
}
