// Crash recovery walkthrough: demonstrates the completion-buffer-centric
// orderless write (§4.2) end to end.
//
// We overwrite a file and pull the (virtual) power cable while the DMA is
// still copying — *after* the metadata (carrying the descriptor's SN) has
// committed. Mounting the crash image shows recovery comparing the log
// entry's SN against the channel's persistent completion record and
// discarding the half-done overwrite: the file reads back fully old, never
// torn. Recovery borrows the stopped device in place and hands it back
// rolled back, so the crashed machine can then run on to the end.
//
// Run: ./build/examples/crash_recovery

#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/easyio/channel_manager.h"
#include "src/easyio/easy_io_fs.h"
#include "src/pmem/slow_memory.h"

using namespace easyio;

namespace {

std::vector<std::byte> Fill(size_t n, uint8_t v) {
  return std::vector<std::byte>(n, std::byte{v});
}

}  // namespace

int main() {
  constexpr size_t kDevice = 256_MB;
  constexpr size_t kFile = 1_MB;

  // ---- life before the crash ----
  sim::Simulation sim({.num_cores = 2});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::TwoNode(), kDevice);
  mem.EnableCrashTracking();

  core::EasyIoFs fs(&mem, {}, {});
  EASYIO_CHECK_OK(fs.Format());
  dma::DmaEngine engine(&mem, fs.layout().comp_region_off, 16);
  core::ChannelManager cm(&sim, &engine, {});
  fs.AttachChannelManager(&cm);

  bool overwrite_returned = false;
  sim.Spawn(0, [&] {
    int fd = *fs.Create("/important");
    EASYIO_CHECK_OK(fs.Write(fd, 0, Fill(kFile, 0xAA)).status());
    EASYIO_CHECK_OK(fs.Fsync(fd));
    std::printf("t=%7.1fus  original data (0xAA) durable\n",
                sim.now() / 1e3);
    EASYIO_CHECK_OK(fs.Write(fd, 0, Fill(kFile, 0xBB)).status());
    overwrite_returned = true;  // we will crash before this line runs
  });

  // The 1MB overwrite's DMA takes ~150us; its metadata commits within a few
  // tens of us. Crash squarely in between.
  sim.RunUntil(260_us);
  std::printf("t=%7.1fus  CRASH! overwrite returned: %s (metadata committed, "
              "DMA in flight)\n",
              sim.now() / 1e3, overwrite_returned ? "yes" : "no");

  // ---- life after the crash ----
  // Recover on a second machine that borrows the crashed device in place:
  // the in-flight DMA's durable prefix is laid over it, and whatever
  // recovery writes is rolled back when the device is handed back.
  bool rolled_back = false;
  {
    sim::Simulation sim2({.num_cores = 2});
    pmem::SlowMemory mem2(&sim2, pmem::MediaParams::TwoNode(), kDevice);
    mem.LendCrashImage(mem2);
    {
      core::EasyIoFs fs2(&mem2, {}, {});
      EASYIO_CHECK_OK(fs2.Mount());
      std::printf("remount: recovery discarded %llu committed-but-incomplete "
                  "write entr%s (SN > completion record)\n",
                  static_cast<unsigned long long>(
                      fs2.recovery_discarded_entries()),
                  fs2.recovery_discarded_entries() == 1 ? "y" : "ies");

      sim2.Spawn(0, [&] {
        int fd = *fs2.Open("/important");
        std::vector<std::byte> back(kFile);
        EASYIO_CHECK_OK(fs2.Read(fd, 0, back).status());
        size_t old_bytes = 0;
        size_t new_bytes = 0;
        for (std::byte b : back) {
          old_bytes += b == std::byte{0xAA};
          new_bytes += b == std::byte{0xBB};
        }
        rolled_back = old_bytes == kFile;
        std::printf("file contents: %zu bytes old (0xAA), %zu bytes new "
                    "(0xBB) -> %s\n",
                    old_bytes, new_bytes,
                    rolled_back ? "atomically rolled back, no tearing"
                                : "TORN WRITE (bug!)");
      });
      sim2.Run();
    }
    mem.ReclaimCrashImage(mem2);
  }

  // The stopped machine never saw any of it: let it finish the overwrite.
  sim.Run();
  std::printf("t=%7.1fus  crashed machine resumed: overwrite returned: %s\n",
              sim.now() / 1e3, overwrite_returned ? "yes" : "no");
  return rolled_back ? 0 : 1;
}
