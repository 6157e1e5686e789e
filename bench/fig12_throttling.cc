// Figure 12: effectiveness of the channel manager's bandwidth throttling.
//
// A Web server (L-app: Poisson-arriving requests, each reading a 64K HTML
// file through EasyIO) is colocated with a garbage collector (B-app: 2MB
// bulk moves through the shared B channel). GC is active during [2s,4s) and
// [6s,8s). Three policies:
//   No-Throttling  - GC runs unregulated;
//   CPU-Throttling - the GC uthread gets fewer CPU cycles (Caladan policy),
//                    which fails: submission is cheap, the DMA engine still
//                    eats the bandwidth;
//   DMA-Throttling - the channel manager caps the B channel at 2 GiB/s by
//                    suspending/resuming it per epoch (the paper's policy).
//
// Paper shape: No-/CPU-throttling spike to ~2.5x the idle latency; DMA
// throttling caps the spike ~40% lower.

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/harness/scenario_runner.h"
#include "src/harness/testbed.h"
#include "src/sim/obs_session.h"

namespace easyio {
namespace {

enum class Policy { kNone, kCpu, kDma };

constexpr uint64_t kRun = 10_s;
constexpr uint64_t kBucket = 500_ms;
constexpr uint64_t kFileBytes = 64_KB;
constexpr int kFiles = 32;
constexpr double kArrivalRateHz = 40000;  // Poisson client requests

bool GcActive(sim::SimTime t) {
  return (t >= 2_s && t < 4_s) || (t >= 6_s && t < 8_s);
}

std::vector<double> RunPolicy(Policy policy,
                              const bench::Flags* flags = nullptr) {
  harness::TestbedConfig cfg;
  cfg.fs = harness::FsKind::kEasy;
  cfg.machine_cores = 8;
  cfg.device_bytes = 1_GB;
  cfg.cm_options.b_limit_init_gbps = 2.0;  // paper: regulate GC below 2 GB/s
  cfg.cm_options.delta_gbps = 0.0;         // fixed limit for this figure
  harness::Testbed tb(cfg);
  auto& sim = tb.sim();
  std::unique_ptr<sim::TraceSession> session;
  if (flags != nullptr) {
    session = std::make_unique<sim::TraceSession>(flags->trace,
                                                  flags->trace_sample);
  }

  // Web content.
  std::vector<int> fds;
  sim.Spawn(0, [&] {
    std::vector<std::byte> body(kFileBytes, std::byte{'<'});
    for (int i = 0; i < kFiles; ++i) {
      int fd = *tb.fs().Create("/html" + std::to_string(i));
      EASYIO_CHECK_OK(tb.fs().Write(fd, 0, body).status());
      fds.push_back(fd);
    }
  });
  sim.Run();

  if (policy == Policy::kDma) {
    tb.channel_manager()->StartThrottling();
  }

  std::vector<uint64_t> bucket_max(kRun / kBucket, 0);
  bool stop = false;
  sim.ScheduleAt(kRun, [&] { stop = true; });

  // Request buffers go back to a free list: a fresh 64 KiB vector per
  // request lets glibc trim the top of the heap and fault it back in on the
  // next one, hundreds of thousands of minor faults per run.
  std::vector<std::vector<std::byte>> free_bufs;

  // Web server: cores 0-3, one detached uthread per request.
  auto* web = tb.MakeScheduler(4);
  sim.Spawn(0, [&, web] {
    Rng rng(7);
    while (!stop) {
      const double gap = rng.NextExponential(1e9 / kArrivalRateHz);
      sim.SleepFor(static_cast<uint64_t>(gap) + 1);
      if (stop) {
        break;
      }
      const int fd = fds[rng.Below(fds.size())];
      web->SpawnDetached([&, fd] {
        const sim::SimTime t0 = sim.now();
        std::vector<std::byte> buf;
        if (free_bufs.empty()) {
          buf.resize(kFileBytes);
        } else {
          buf = std::move(free_bufs.back());
          free_bufs.pop_back();
        }
        EASYIO_CHECK_OK(tb.fs().Read(fd, 0, buf).status());
        const uint64_t lat = sim.now() - t0;
        const size_t b = std::min<size_t>(t0 / kBucket,
                                          bucket_max.size() - 1);
        bucket_max[b] = std::max(bucket_max[b], lat);
        free_bufs.push_back(std::move(buf));
      });
    }
  });

  // Garbage collector on core 6 (its own runtime in the real deployment).
  sim.Spawn(6, [&] {
    std::vector<std::byte> bulk(2_MB, std::byte{0xcc});
    while (!stop) {
      if (!GcActive(sim.now())) {
        sim.SleepFor(1_ms);
        continue;
      }
      tb.channel_manager()->BulkWriteAndWait(768_MB, bulk.data(),
                                             bulk.size());
      if (policy == Policy::kCpu) {
        // Caladan-style CPU quota: the GC uthread is descheduled 3/4 of the
        // time — but the DMA engine keeps moving its submitted bulk data.
        sim.SleepFor(2_us);
      }
    }
  });

  sim.RunUntil(kRun + 10_ms);
  if (session != nullptr) {
    tb.CollectStats().Print(stderr);
  }
  std::vector<double> timeline;
  for (uint64_t v : bucket_max) {
    timeline.push_back(static_cast<double>(v) / 1e3);
  }
  return timeline;
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  // --trace=<path> records the DMA-Throttling run: epoch ticks,
  // budget_suspend decisions and the B channel's CHANCMD suspension windows.
  // The tracer is per thread and the session is created inside the
  // scenario job, so it traces exactly that simulation at any --jobs.
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, bench::Flags::kTrace,
                        /*default_trace_sample=*/32);
  bench::PrintHeader(
      "Figure 12: web-server max latency per 0.5s (us) with a colocated GC\n"
      "(GC active during [2s,4s) and [6s,8s); B-app limit 2 GiB/s)");
  // The three timelines are independent simulations.
  const Policy policies[] = {Policy::kNone, Policy::kCpu, Policy::kDma};
  const auto timelines =
      harness::RunIndexed(flags.jobs, std::size(policies), [&](size_t i) {
        const bool traced = policies[i] == Policy::kDma && flags.tracing();
        return RunPolicy(policies[i], traced ? &flags : nullptr);
      });
  const auto& none = timelines[0];
  const auto& cpu = timelines[1];
  const auto& dma = timelines[2];
  std::printf("%6s %15s %15s %15s\n", "t(s)", "No-Throttling",
              "CPU-Throttling", "DMA-Throttling");
  for (size_t i = 0; i < none.size(); ++i) {
    std::printf("%6.1f %15.1f %15.1f %15.1f\n",
                static_cast<double>(i) * 0.5, none[i], cpu[i], dma[i]);
  }
  auto peak_during_gc = [](const std::vector<double>& tl) {
    double peak = 0;
    for (size_t i = 0; i < tl.size(); ++i) {
      if ((i >= 4 && i < 8) || (i >= 12 && i < 16)) {
        peak = std::max(peak, tl[i]);
      }
    }
    return peak;
  };
  const double p_none = peak_during_gc(none);
  const double p_cpu = peak_during_gc(cpu);
  const double p_dma = peak_during_gc(dma);
  std::printf(
      "\nGC-window peak latency: none=%.1fus cpu=%.1fus dma=%.1fus "
      "(dma %.0f%% below others)\n",
      p_none, p_cpu, p_dma,
      100.0 * (1.0 - p_dma / std::max(p_none, p_cpu)));
  std::printf(
      "Expected shape (paper): No-/CPU-throttling spike ~2.5x idle; DMA\n"
      "throttling holds the peak ~40%% lower.\n");
  return 0;
}
