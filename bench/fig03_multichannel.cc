// Figure 3: DMA bandwidth with a varying number of channels (1-8); 16 cores
// submit requests concurrently so the channels stay saturated.
//
// Paper shapes: write bandwidth peaks at 4 channels for 4K and declines
// monotonically with channel count for larger I/O; read bandwidth never
// declines and peaks at 2-4 channels.

#include <cstdio>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/dma/fault_plan.h"
#include "src/harness/scenario_runner.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio {
namespace {

constexpr uint64_t kDuration = 30_ms;
constexpr int kCores = 16;

double RunDma(bool is_write, uint64_t io_size, int channels,
              uint64_t fault_seed) {
  sim::Simulation sim({.num_cores = kCores});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 256_MB);
  dma::DmaEngine engine(&mem, 0, channels);
  std::optional<dma::FaultInjector> injector;
  if (fault_seed != 0) {
    injector.emplace(bench::MakeBenchFaultPlan(fault_seed, channels));
    engine.AttachFaultInjector(&*injector);
  }
  uint64_t bytes_done = 0;
  bool stop = false;
  sim.ScheduleAt(kDuration, [&] { stop = true; });
  for (int c = 0; c < kCores; ++c) {
    sim.Spawn(c, [&, c] {
      std::vector<std::byte> buf(io_size, std::byte{0x77});
      const uint64_t base = 64_MB + 4_MB * static_cast<uint64_t>(c);
      uint64_t off = 0;
      dma::Channel& ch = engine.channel(c % channels);
      while (!stop) {
        dma::Descriptor d;
        d.dir = is_write ? dma::Descriptor::Dir::kWrite
                         : dma::Descriptor::Dir::kRead;
        d.pmem_off = base + off;
        d.dram = buf.data();
        d.size = static_cast<uint32_t>(io_size);
        const dma::Sn sn = ch.Submit(std::move(d));
        // kSpin holds the core while waiting; under --faults the wait also
        // retries errors and falls back to a CPU copy when retries run out.
        ch.WaitSn(sn, dma::Wait::kSpin);
        bytes_done += io_size;
        off = (off + io_size) % 4_MB;
      }
    });
  }
  sim.RunUntil(kDuration + 1_s);
  return GibPerSec(bytes_done, kDuration);
}

const std::vector<int> kChannelCounts{1, 2, 4, 6, 8};
const std::vector<uint64_t> kIoSizes{4_KB, 16_KB, 64_KB};

// Each grid point is an independent simulation; the whole direction fans out
// across the scenario runner and prints from the ordered result vector.
void RunDirection(bool is_write, int jobs, uint64_t fault_seed) {
  std::printf("\n-- %s bandwidth (GiB/s), 16 cores --\n",
              is_write ? "Write" : "Read");
  std::printf("%-10s", "io\\chans");
  for (int ch : kChannelCounts) {
    std::printf("%8d", ch);
  }
  std::printf("\n");
  const size_t cols = kChannelCounts.size();
  const std::vector<double> gibps =
      harness::RunIndexed(jobs, kIoSizes.size() * cols, [&](size_t i) {
        return RunDma(is_write, kIoSizes[i / cols], kChannelCounts[i % cols],
                      fault_seed);
      });
  for (size_t row = 0; row < kIoSizes.size(); ++row) {
    std::printf("%-10s", bench::SizeName(kIoSizes[row]).c_str());
    for (size_t col = 0; col < cols; ++col) {
      std::printf("%8.2f", gibps[row * cols + col]);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  // --faults=<seed> injects a seeded random DMA fault plan into every grid
  // point; seed 0 (the default) is byte-identical to a run without the flag.
  const bench::Flags flags = bench::ParseFlags(
      argc, argv, bench::Flags::kJobs | bench::Flags::kFaults);
  bench::PrintHeader("Figure 3: DMA bandwidth vs number of channels");
  RunDirection(/*is_write=*/true, flags.jobs, flags.faults);
  RunDirection(/*is_write=*/false, flags.jobs, flags.faults);
  std::printf(
      "\nExpected shape (paper): writes peak at 4 channels for 4K and fall\n"
      "monotonically with channels for 64K; reads never decline, peak 2-4.\n");
  return 0;
}
