// Figure 11: effectiveness of EasyIO's individual techniques.
//
// Left panel: orderless file operation — single-thread write latency of
// EasyIO vs Naive (strictly ordered, two kernel interactions) across I/O
// sizes. Paper: ~18% lower on average, gap growing with I/O size.
//
// Right panel: two-level locking — FxMark DWOM (shared-file writes) with a
// compute-only uthread colocated per core, EasyIO vs Naive across core
// counts. Paper: Naive holds the file lock across the whole operation (the
// DMA wait included), so EasyIO's early release wins (~66% at 2 cores); both
// decline as cores add lock contention.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/fxmark/fxmark.h"
#include "src/harness/scenario_runner.h"
#include "src/harness/testbed.h"
#include "src/harness/window.h"
#include "src/nova/layout.h"
#include "src/sim/obs_session.h"

namespace easyio {
namespace {

harness::TestbedConfig Config(harness::FsKind kind, int machine_cores,
                              size_t device_bytes, uint64_t fault_seed) {
  harness::TestbedConfig cfg;
  cfg.fs = kind;
  cfg.machine_cores = machine_cores;
  cfg.device_bytes = device_bytes;
  cfg.faults = bench::MakeBenchFaultPlan(fault_seed, nova::kCompChannels);
  return cfg;
}

// `traced` records this run under --trace and prints its counters.
double WriteLatencyUs(harness::FsKind kind, uint64_t io_size,
                      const bench::Flags& flags, bool traced) {
  harness::Testbed tb(Config(kind, 4, 256_MB, flags.faults));
  std::unique_ptr<sim::TraceSession> session;
  if (traced) {
    session = std::make_unique<sim::TraceSession>(flags.trace,
                                                  flags.trace_sample);
  }
  double total = 0;
  for (const fs::OpStats& st : fxmark::Probe(tb, /*is_write=*/true, io_size)) {
    total += st.total_ns / 1e3;
  }
  if (session != nullptr) {
    tb.CollectStats().Print(stderr);
  }
  return total / fxmark::kProbeOps;
}

// DWOM with a colocated compute uthread per core (work stealing disabled,
// §6.4.2) — measures shared-file write throughput under lock contention.
// Workers 0..cores-1 are the writers, cores..2*cores-1 the compute uthreads.
double DwomThroughputKops(harness::FsKind kind, int cores,
                          uint64_t fault_seed) {
  harness::Testbed tb(Config(kind, 16, 1_GB, fault_seed));

  // Shared file.
  int shared_fd = -1;
  tb.sim().Spawn(0, [&] {
    shared_fd = *tb.fs().Create("/shared");
    std::vector<std::byte> block(1_MB, std::byte{0x11});
    for (uint64_t off = 0; off < 16_MB; off += 1_MB) {
      EASYIO_CHECK_OK(tb.fs().Write(shared_fd, off, block).status());
    }
  });
  tb.sim().Run();

  uint64_t ops = 0;
  constexpr uint64_t kMeasure = 40_ms;
  harness::RunWindow(
      tb, cores, /*work_stealing=*/false, 2 * cores, /*warmup_ns=*/5_ms,
      kMeasure, [&](int w, const harness::WindowFlags& window) {
        if (w >= cores) {
          // A compute-only uthread that never issues I/O (§6.4.2).
          while (!window.stop) {
            tb.sim().Advance(2_us);  // scientific computation slice
            tb.scheduler()->Yield();
          }
          return;
        }
        Rng rng(100 + static_cast<uint64_t>(w));
        std::vector<std::byte> buf(16_KB, std::byte{0x77});
        while (!window.stop) {
          EASYIO_CHECK_OK(
              tb.fs()
                  .Write(shared_fd, rng.Below(16_MB / 16_KB) * 16_KB, buf)
                  .status());
          if (window.counting()) {
            ops++;
          }
        }
      });
  return static_cast<double>(ops) /
         (static_cast<double>(kMeasure) / 1e9) / 1e3;
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  // --trace=<path> records the EasyIO 64K single-thread run: every orderless
  // write's commit / l1_hold / sn_wait phases, unsampled. The session is
  // created inside the scenario job, so it traces exactly that simulation on
  // whichever worker thread runs it (see src/sim/obs_session.h).
  // --faults=<seed> injects a seeded DMA fault plan into every run's
  // testbed; seed 0 (the default) is byte-identical to no flag.
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, bench::Flags::kFaults | bench::Flags::kTrace,
                        /*default_trace_sample=*/1);
  const int jobs = flags.jobs;
  bench::PrintHeader("Figure 11 (left): orderless file operation — "
                     "single-thread write latency (us)");
  std::printf("%-8s %10s %10s %8s\n", "io", "EasyIO", "Naive", "gain");
  const std::vector<uint64_t> ios{4_KB, 8_KB, 16_KB, 32_KB, 64_KB};
  // Column-major pairs: [i] = EasyIO, [ios.size() + i] = Naive.
  const std::vector<double> lat =
      harness::RunIndexed(jobs, ios.size() * 2, [&](size_t i) {
        const bool naive = i >= ios.size();
        const uint64_t io = ios[i % ios.size()];
        const bool traced = !naive && io == 64_KB && flags.tracing();
        return WriteLatencyUs(
            naive ? harness::FsKind::kEasyNaive : harness::FsKind::kEasy, io,
            flags, traced);
      });
  double gain_sum = 0;
  int gain_n = 0;
  for (size_t i = 0; i < ios.size(); ++i) {
    const double easy = lat[i];
    const double naive = lat[ios.size() + i];
    const double gain = 100.0 * (naive - easy) / naive;
    gain_sum += gain;
    gain_n++;
    std::printf("%-8s %10.2f %10.2f %7.1f%%\n",
                bench::SizeName(ios[i]).c_str(), easy, naive, gain);
  }
  std::printf("average latency reduction: %.1f%% (paper: ~18%%)\n",
              gain_sum / gain_n);

  bench::PrintHeader("Figure 11 (right): two-level locking — DWOM 16K "
                     "shared-file writes + colocated compute (Kops/s)");
  std::printf("%-7s %10s %10s %8s\n", "cores", "EasyIO", "Naive", "gain");
  const std::vector<int> core_counts{2, 4, 6, 8};
  const std::vector<double> kops =
      harness::RunIndexed(jobs, core_counts.size() * 2, [&](size_t i) {
        const bool naive = i >= core_counts.size();
        return DwomThroughputKops(
            naive ? harness::FsKind::kEasyNaive : harness::FsKind::kEasy,
            core_counts[i % core_counts.size()], flags.faults);
      });
  for (size_t i = 0; i < core_counts.size(); ++i) {
    const double easy = kops[i];
    const double naive = kops[core_counts.size() + i];
    std::printf("%-7d %10.1f %10.1f %7.1f%%\n", core_counts[i], easy, naive,
                100.0 * (easy - naive) / naive);
  }
  std::printf(
      "\nExpected shape (paper): EasyIO ~66%% higher at 2 cores; both sides\n"
      "decline as more cores contend for the single file lock.\n");
  return 0;
}
