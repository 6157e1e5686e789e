// Figure 8: single-thread operation latency of NOVA, NOVA-DMA, ODINFS and
// EasyIO across I/O sizes, plus EasyIO-CPU (the CPU-busy share of EasyIO's
// operation).
//
// Paper shapes: EasyIO lowest for writes and reads (DMA offload + orderless
// commit); the gap grows with I/O size (~41% lower 64K write latency);
// EasyIO-CPU is ~37% (write) and ~5% (read) of the op at 64K; OdinFS beats
// NOVA for large I/Os.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/fxmark/fxmark.h"
#include "src/harness/scenario_runner.h"
#include "src/harness/testbed.h"
#include "src/nova/layout.h"

namespace easyio {
namespace {

struct Point {
  double total_us;
  double cpu_us;
};

Point Measure(harness::FsKind kind, bool is_write, uint64_t io_size,
              uint64_t fault_seed) {
  harness::TestbedConfig cfg;
  cfg.fs = kind;
  cfg.machine_cores = 36;
  cfg.device_bytes = 256_MB;
  cfg.faults = bench::MakeBenchFaultPlan(fault_seed, nova::kCompChannels);
  harness::Testbed tb(cfg);
  Point out{0, 0};
  for (const fs::OpStats& st : fxmark::Probe(tb, is_write, io_size)) {
    out.total_us += st.total_ns / 1e3;
    out.cpu_us += st.cpu_ns / 1e3;
  }
  out.total_us /= fxmark::kProbeOps;
  out.cpu_us /= fxmark::kProbeOps;
  return out;
}

// One independent simulation per (fs, io) point; the direction's whole grid
// fans out across the scenario runner and prints from the ordered results.
void RunDirection(bool is_write, const bench::Flags& flags) {
  std::printf("\n-- %s latency (us), single thread --\n",
              is_write ? "Write" : "Read");
  std::printf("%-10s %8s %10s %8s %8s %12s\n", "io", "NOVA", "NOVA-DMA",
              "ODINFS", "EasyIO", "EasyIO-CPU");
  const std::vector<uint64_t> ios{4_KB, 8_KB, 16_KB, 32_KB, 64_KB};
  const std::vector<harness::FsKind> kinds{
      harness::FsKind::kNova, harness::FsKind::kNovaDma,
      harness::FsKind::kOdin, harness::FsKind::kEasy};
  const size_t cols = kinds.size();
  const std::vector<Point> points =
      harness::RunIndexed(flags.jobs, ios.size() * cols, [&](size_t i) {
        return Measure(kinds[i % cols], is_write, ios[i / cols], flags.faults);
      });
  for (size_t row = 0; row < ios.size(); ++row) {
    const Point* p = &points[row * cols];
    std::printf("%-10s %8.2f %10.2f %8.2f %8.2f %12.2f\n",
                bench::SizeName(ios[row]).c_str(), p[0].total_us,
                p[1].total_us, p[2].total_us, p[3].total_us, p[3].cpu_us);
  }
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  const bench::Flags flags = bench::ParseFlags(argc, argv, bench::Flags::kFaults);
  // --faults=<seed> injects a seeded DMA fault plan into every point's
  // testbed; seed 0 (the default) is byte-identical to no flag.
  bench::PrintHeader("Figure 8: operation latency by filesystem (1 thread)");
  RunDirection(/*is_write=*/true, flags);
  RunDirection(/*is_write=*/false, flags);
  std::printf(
      "\nExpected shape (paper): EasyIO lowest write+read latency, gap\n"
      "growing with I/O size (~41%% lower 64K write than NOVA); EasyIO-CPU\n"
      "~37%%/~5%% of write/read op at 64K; ODINFS helps for large I/Os.\n");
  return 0;
}
