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
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
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

void RunDirection(bool is_write) {
  std::printf("\n-- %s bandwidth (GiB/s), one NUMA node --\n",
              is_write ? "Write" : "Read");
  std::printf("%-14s", "series\\cores");
  const std::vector<int> core_counts{1, 2, 4, 8, 16};
  for (int c : core_counts) {
    std::printf("%8d", c);
  }
  std::printf("\n");

  std::printf("%-14s", "memcpy-4K");
  for (int c : core_counts) {
    std::printf("%8.2f", RunMemcpy(is_write, 4_KB, c));
  }
  std::printf("\n");
  std::printf("%-14s", "memcpy-64K");
  for (int c : core_counts) {
    std::printf("%8.2f", RunMemcpy(is_write, 64_KB, c));
  }
  std::printf("\n");

  for (uint64_t io : {4_KB, 16_KB, 64_KB}) {
    for (int batch : {1, 4}) {
      char name[32];
      std::snprintf(name, sizeof(name), "DMA-%s-%s", bench::SizeName(io).c_str(),
                    batch == 1 ? "NB" : "B");
      std::printf("%-14s", name);
      for (int c : core_counts) {
        std::printf("%8.2f", RunDma(is_write, io, c, batch));
      }
      std::printf("\n");
    }
  }
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  bench::ParseFlags(argc, argv, /*accepts=*/0);  // takes no flags
  bench::PrintHeader(
      "Figure 2: memcpy vs on-chip DMA bandwidth (1 DMA channel)");
  RunDirection(/*is_write=*/true);
  RunDirection(/*is_write=*/false);
  std::printf(
      "\nExpected shape (paper): DMA saturates write BW with 1 core; memcpy\n"
      "write declines beyond ~4 cores; DMA read peak ~37%% of memcpy's;\n"
      "DMA loses at 4K even batched.\n");
  return 0;
}
