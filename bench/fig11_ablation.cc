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
#include "src/sim/obs_session.h"

namespace easyio {
namespace {

// Set from --faults=<seed> in main before any scenario job runs; 0 = off.
uint64_t g_fault_seed = 0;

void MaybeInjectFaults(harness::TestbedConfig* cfg) {
  if (g_fault_seed != 0) {
    cfg->faults = bench::MakeBenchFaultPlan(
        g_fault_seed, static_cast<int>(cfg->fs_options.comp_channels));
  }
}

double WriteLatencyUs(harness::FsKind kind, uint64_t io_size,
                      const bench::Flags* flags = nullptr) {
  harness::TestbedConfig cfg;
  cfg.fs = kind;
  cfg.machine_cores = 4;
  cfg.device_bytes = 256_MB;
  MaybeInjectFaults(&cfg);
  harness::Testbed tb(cfg);
  std::unique_ptr<sim::TraceSession> session;
  if (flags != nullptr) {
    session = std::make_unique<sim::TraceSession>(flags->trace,
                                                  flags->trace_sample);
  }
  double total = 0;
  constexpr int kOps = 200;
  tb.sim().Spawn(0, [&] {
    Rng rng(1);
    int fd = *tb.fs().Create("/f");
    std::vector<std::byte> buf(io_size, std::byte{0x33});
    for (uint64_t off = 0; off < 4_MB; off += io_size) {
      EASYIO_CHECK_OK(tb.fs().Write(fd, off, buf).status());
    }
    for (int i = 0; i < kOps; ++i) {
      fs::OpStats st;
      EASYIO_CHECK_OK(
          tb.fs().Write(fd, rng.Below(4_MB / io_size) * io_size, buf, &st)
              .status());
      total += st.total_ns / 1e3;
    }
  });
  tb.sim().Run();
  if (session != nullptr) {
    tb.CollectStats().Print(stderr);
  }
  return total / kOps;
}

// DWOM with a colocated compute uthread per core (work stealing disabled,
// §6.4.2) — measures shared-file write throughput under lock contention.
double DwomThroughputKops(harness::FsKind kind, int cores) {
  harness::TestbedConfig tb_cfg;
  tb_cfg.fs = kind;
  tb_cfg.machine_cores = 16;
  tb_cfg.device_bytes = 1_GB;
  MaybeInjectFaults(&tb_cfg);
  harness::Testbed tb(tb_cfg);

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

  auto* sched = tb.MakeScheduler(cores, /*work_stealing=*/false);
  bool stop = false;
  bool measuring = false;
  uint64_t ops = 0;
  constexpr uint64_t kWarmup = 5_ms;
  constexpr uint64_t kMeasure = 40_ms;
  tb.sim().ScheduleAfter(kWarmup, [&] { measuring = true; });
  tb.sim().ScheduleAfter(kWarmup + kMeasure, [&] { stop = true; });

  for (int c = 0; c < cores; ++c) {
    // One DWOM writer per core...
    sched->SpawnOn(c, [&, c] {
      Rng rng(100 + static_cast<uint64_t>(c));
      std::vector<std::byte> buf(16_KB, std::byte{0x77});
      while (!stop) {
        EASYIO_CHECK_OK(
            tb.fs()
                .Write(shared_fd, rng.Below(16_MB / 16_KB) * 16_KB, buf)
                .status());
        if (measuring && !stop) {
          ops++;
        }
      }
    });
    // ...plus one compute-only uthread that never issues I/O (§6.4.2).
    sched->SpawnOn(c, [&] {
      while (!stop) {
        tb.sim().Advance(2_us);  // scientific computation slice
        sched->Yield();
      }
    });
  }
  tb.sim().Run();
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
  const bench::Flags flags = bench::ParseFlags(
      argc, argv,
      bench::Flags::kJobs | bench::Flags::kFaults | bench::Flags::kTrace,
      /*default_trace_sample=*/1);
  g_fault_seed = flags.faults;
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
            traced ? &flags : nullptr);
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
            core_counts[i % core_counts.size()]);
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
