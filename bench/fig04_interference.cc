// Figure 4: interference between a latency-sensitive foreground program
// (64K DMA reads) and a background bulk mover (2MB transfers, emulating GC)
// over a 10-second timeline. Background variants: memcpy, DMA on a separate
// channel (DMA-EX), DMA sharing the foreground channel (DMA-SH). GC is
// active during seconds [2,4) and [6,8).
//
// Paper shapes: switching the background from memcpy to DMA more than
// doubles foreground latency; sharing a channel jitters worst (head-of-line
// blocking in the hardware queue).

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/harness/scenario_runner.h"
#include "src/obs/trace.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/obs_session.h"
#include "src/sim/simulation.h"

namespace easyio {
namespace {

enum class BgMode { kMemcpy, kDmaExclusive, kDmaShared };

constexpr uint64_t kRun = 10_s;
constexpr uint64_t kBucket = 500_ms;

std::vector<double> RunTimeline(BgMode mode, const bench::Flags* flags) {
  sim::Simulation sim({.num_cores = 2});
  std::unique_ptr<sim::TraceSession> session;
  if (flags != nullptr) {
    session = std::make_unique<sim::TraceSession>(flags->trace,
                                                  flags->trace_sample);
  }
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 256_MB);
  dma::DmaEngine engine(&mem, 0, 2);

  std::vector<uint64_t> bucket_sum(kRun / kBucket, 0);
  std::vector<uint64_t> bucket_n(kRun / kBucket, 0);
  bool stop = false;
  sim.ScheduleAt(kRun, [&] { stop = true; });

  // Foreground: back-to-back 64K DMA reads on channel 0.
  sim.Spawn(0, [&] {
    std::vector<std::byte> buf(64_KB);
    while (!stop) {
      const sim::SimTime t0 = sim.now();
      dma::Descriptor d{dma::Descriptor::Dir::kRead, 64_MB, buf.data(), 64_KB};
      dma::Channel& ch = engine.channel(0);
      const dma::Sn sn = ch.Submit(std::move(d));
      ch.WaitSn(sn, dma::Wait::kSpin);
      const uint64_t lat = sim.now() - t0;
      // Per-op async span so the interference spike is visible as a band of
      // widening fg_read spans in Perfetto (the JSON the issue's acceptance
      // test loads).
      if (auto* t = obs::Get(); t && t->Sample()) {
        t->AsyncSpan(t->NextOpId(), "fg_read", t0, sim.now(),
                     {{"lat_ns", lat}});
      }
      const size_t bucket = std::min<size_t>(t0 / kBucket,
                                             bucket_sum.size() - 1);
      bucket_sum[bucket] += lat;
      bucket_n[bucket]++;
    }
  });

  // Background GC: 2MB bulk moves, continuously while active.
  auto gc_active = [](sim::SimTime t) {
    return (t >= 2_s && t < 4_s) || (t >= 6_s && t < 8_s);
  };
  sim.Spawn(1, [&] {
    std::vector<std::byte> bulk(2_MB, std::byte{0xbb});
    while (!stop) {
      if (!gc_active(sim.now())) {
        sim.SleepFor(1_ms);
        continue;
      }
      switch (mode) {
        case BgMode::kMemcpy:
          mem.CpuWrite(128_MB, bulk.data(), bulk.size());
          break;
        case BgMode::kDmaExclusive:
        case BgMode::kDmaShared: {
          dma::Channel& ch =
              engine.channel(mode == BgMode::kDmaShared ? 0 : 1);
          dma::Descriptor d{dma::Descriptor::Dir::kWrite, 128_MB,
                            bulk.data(), 2_MB};
          const dma::Sn sn = ch.Submit(std::move(d));
          ch.WaitSn(sn);
          break;
        }
      }
    }
  });

  sim.RunUntil(kRun + 1_ms);
  std::vector<double> timeline;
  for (size_t i = 0; i < bucket_sum.size(); ++i) {
    timeline.push_back(bucket_n[i] == 0
                           ? 0.0
                           : static_cast<double>(bucket_sum[i]) /
                                 static_cast<double>(bucket_n[i]) / 1e3);
  }
  return timeline;
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  // --trace=<path> records the DMA-SH run (the interesting one: shared-
  // channel head-of-line blocking); default sampling keeps the file small.
  // The tracer is per thread and the session is created inside the
  // scenario job, so it traces exactly that simulation at any --jobs.
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, bench::Flags::kTrace,
                        /*default_trace_sample=*/16);
  bench::PrintHeader(
      "Figure 4: foreground 64K DMA-read latency vs background bulk mover\n"
      "(GC active during [2s,4s) and [6s,8s); avg latency per 0.5s, us)");
  const BgMode modes[] = {BgMode::kMemcpy, BgMode::kDmaExclusive,
                          BgMode::kDmaShared};
  const auto timelines =
      harness::RunIndexed(flags.jobs, std::size(modes), [&](size_t i) {
        const bool traced = modes[i] == BgMode::kDmaShared && flags.tracing();
        return RunTimeline(modes[i], traced ? &flags : nullptr);
      });
  const auto& memcpy_tl = timelines[0];
  const auto& ex_tl = timelines[1];
  const auto& sh_tl = timelines[2];
  std::printf("%6s %12s %12s %12s\n", "t(s)", "BG-Memcpy", "BG-DMA-EX",
              "BG-DMA-SH");
  for (size_t i = 0; i < memcpy_tl.size(); ++i) {
    std::printf("%6.1f %12.1f %12.1f %12.1f\n",
                static_cast<double>(i) * 0.5, memcpy_tl[i], ex_tl[i],
                sh_tl[i]);
  }
  double base = 0;
  double ex_peak = 0;
  double sh_peak = 0;
  for (size_t i = 0; i < memcpy_tl.size(); ++i) {
    const bool gc = (i >= 4 && i < 8) || (i >= 12 && i < 16);
    if (!gc) {
      base = std::max(base, memcpy_tl[i]);
    } else {
      ex_peak = std::max(ex_peak, ex_tl[i]);
      sh_peak = std::max(sh_peak, sh_tl[i]);
    }
  }
  std::printf(
      "\nidle FG latency ~%.1fus; during GC: DMA-EX peaks %.1fus, DMA-SH "
      "peaks %.1fus\n",
      base, ex_peak, sh_peak);
  std::printf(
      "Expected shape (paper): >2x latency increase when BG uses DMA, with\n"
      "the shared-channel case far worse (head-of-line blocking).\n");
  return 0;
}
