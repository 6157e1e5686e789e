// Figure 2: raw bandwidth of CPU memcpy vs the on-chip DMA engine when
// copying between DRAM and the slow memory, sweeping core count, I/O size
// and batch size. One DMA channel; one NUMA node with 3 DCPMMs (§2.2).
//
// Paper shapes:
//   1. one DMA channel saturates device write bandwidth with a single core,
//      memcpy needs several;
//   2. DMA read peak is far below memcpy's (~63% lower);
//   3. DMA loses to memcpy at 4K even with batching;
//   4. memcpy write bandwidth *declines* as cores are added.

#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/harness/scenario_runner.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio {
namespace {

constexpr uint64_t kDuration = 30_ms;
constexpr uint64_t kRegionPerWorker = 4_MB;

double RunMemcpy(bool is_write, uint64_t io_size, int cores) {
  sim::Simulation sim({.num_cores = cores});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(),
                       64_MB + kRegionPerWorker * static_cast<uint64_t>(cores));
  uint64_t bytes_done = 0;
  bool stop = false;
  sim.ScheduleAt(kDuration, [&] { stop = true; });
  for (int c = 0; c < cores; ++c) {
    sim.Spawn(c, [&, c] {
      std::vector<std::byte> buf(io_size, std::byte{0x77});
      const uint64_t base = 64_MB + kRegionPerWorker * static_cast<uint64_t>(c);
      uint64_t off = 0;
      while (!stop) {
        if (is_write) {
          mem.CpuWrite(base + off, buf.data(), io_size);
        } else {
          mem.CpuRead(buf.data(), base + off, io_size);
        }
        bytes_done += io_size;
        off = (off + io_size) % kRegionPerWorker;
      }
    });
  }
  sim.RunUntil(kDuration + 1_s);
  return GibPerSec(bytes_done, kDuration);
}

double RunDma(bool is_write, uint64_t io_size, int cores, int batch) {
  sim::Simulation sim({.num_cores = cores});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(),
                       64_MB + kRegionPerWorker * static_cast<uint64_t>(cores));
  dma::DmaEngine engine(&mem, 0, /*num_channels=*/1);  // one channel (Fig 2)
  uint64_t bytes_done = 0;
  bool stop = false;
  sim.ScheduleAt(kDuration, [&] { stop = true; });
  for (int c = 0; c < cores; ++c) {
    sim.Spawn(c, [&, c] {
      std::vector<std::byte> buf(io_size * static_cast<size_t>(batch),
                                 std::byte{0x77});
      const uint64_t base = 64_MB + kRegionPerWorker * static_cast<uint64_t>(c);
      uint64_t off = 0;
      while (!stop) {
        std::vector<dma::Descriptor> descs;
        for (int b = 0; b < batch; ++b) {
          dma::Descriptor d;
          d.dir = is_write ? dma::Descriptor::Dir::kWrite
                           : dma::Descriptor::Dir::kRead;
          d.pmem_off = base + off;
          d.dram = buf.data() + static_cast<size_t>(b) * io_size;
          d.size = static_cast<uint32_t>(io_size);
          descs.push_back(std::move(d));
          off = (off + io_size) % kRegionPerWorker;
        }
        std::vector<dma::Sn> sns;
        engine.channel(0).SubmitBatch(std::span<dma::Descriptor>(descs), &sns);
        engine.channel(0).WaitSn(sns.back(), dma::Wait::kSpin);
        bytes_done += io_size * static_cast<uint64_t>(batch);
      }
    });
  }
  sim.RunUntil(kDuration + 1_s);
  return GibPerSec(bytes_done, kDuration);
}

// One row of a bandwidth table: memcpy (batch 0) or DMA with `batch`
// descriptors per submission, at one I/O size.
struct Series {
  uint64_t io_size;
  int batch;
};

const Series kSeries[] = {{4_KB, 0},  {64_KB, 0}, {4_KB, 1},  {4_KB, 4},
                          {16_KB, 1}, {16_KB, 4}, {64_KB, 1}, {64_KB, 4}};
const int kCores[] = {1, 2, 4, 8, 16};

std::string SeriesName(const Series& s) {
  const std::string io = bench::SizeName(s.io_size);
  if (s.batch == 0) {
    return "memcpy-" + io;
  }
  return "DMA-" + io + (s.batch == 1 ? "-NB" : "-B");
}

double RunCell(bool is_write, const Series& s, int cores) {
  return s.batch == 0 ? RunMemcpy(is_write, s.io_size, cores)
                      : RunDma(is_write, s.io_size, cores, s.batch);
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  const bench::Flags flags = bench::ParseFlags(argc, argv);
  bench::PrintHeader(
      "Figure 2: memcpy vs on-chip DMA bandwidth (1 DMA channel)");
  // Cell i: writes first, then reads; within a direction, row-major over
  // (series, cores).
  const size_t per_direction = std::size(kSeries) * std::size(kCores);
  const auto gib =
      harness::RunIndexed(flags.jobs, 2 * per_direction, [&](size_t i) {
        const size_t cell = i % per_direction;
        return RunCell(/*is_write=*/i < per_direction,
                       kSeries[cell / std::size(kCores)],
                       kCores[cell % std::size(kCores)]);
      });
  size_t next = 0;
  for (const bool is_write : {true, false}) {
    std::printf("\n-- %s bandwidth (GiB/s), one NUMA node --\n",
                is_write ? "Write" : "Read");
    std::printf("%-14s", "series\\cores");
    for (int c : kCores) {
      std::printf("%8d", c);
    }
    std::printf("\n");
    for (const Series& s : kSeries) {
      std::printf("%-14s", SeriesName(s).c_str());
      for (size_t c = 0; c < std::size(kCores); ++c) {
        std::printf("%8.2f", gib[next++]);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nExpected shape (paper): DMA saturates write BW with 1 core; memcpy\n"
      "write declines beyond ~4 cores; DMA read peak ~37%% of memcpy's;\n"
      "DMA loses at 4K even batched.\n");
  return 0;
}
