// Quickstart: bring up the simulated slow-memory machine, mount EasyIO, and
// issue asynchronous reads and writes from uthreads.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/harness/testbed.h"

using namespace easyio;

int main() {
  // A 36-core machine with 6 simulated Optane DCPMMs (the paper's testbed),
  // EasyIO mounted on a 1 GiB device.
  harness::TestbedConfig config;
  config.fs = harness::FsKind::kEasy;
  harness::Testbed tb(config);

  // A Caladan-style runtime over 2 cores; 4 uthreads share them.
  auto* sched = tb.MakeScheduler(/*cores=*/2);

  bool all_ok = true;
  tb.sim().Spawn(0, [&] {
    sched->RunWorkers(4, [&](int id) {
      auto& fs = tb.fs();
      const std::string path = "/hello_" + std::to_string(id);
      int fd = *fs.Create(path);

      // A 64KB write: EasyIO offloads the copy to a DMA channel, commits
      // the metadata in parallel (orderless), and parks this uthread — the
      // core runs the other workers meanwhile.
      std::vector<std::byte> data(64_KB, std::byte{static_cast<uint8_t>(id)});
      fs::OpStats st;
      EASYIO_CHECK_OK(fs.Write(fd, 0, data, &st).status());
      std::printf(
          "[uthread %d] wrote 64KB: total %5.1fus, CPU-busy %5.1fus "
          "(%4.1f%% harvested while the DMA ran)\n",
          id, st.total_ns / 1e3, st.cpu_ns / 1e3,
          100.0 * st.blocked_ns / st.total_ns);

      // Read it back (also DMA-offloaded when a channel is free).
      std::vector<std::byte> back(64_KB);
      EASYIO_CHECK_OK(fs.Read(fd, 0, back, &st).status());
      if (back != data) {
        std::printf("[uthread %d] data mismatch!\n", id);
        all_ok = false;
        return;
      }
      std::printf("[uthread %d] read back OK: total %5.1fus, CPU %5.1fus\n",
                  id, st.total_ns / 1e3, st.cpu_ns / 1e3);
      EASYIO_CHECK_OK(fs.Close(fd));
    });
    std::printf(
        "\nAll 4 uthreads finished at t=%.1fus on 2 cores — their I/Os "
        "overlapped.\n",
        tb.sim().now() / 1e3);
    std::printf("writes offloaded to DMA: %llu, reads offloaded: %llu\n",
                static_cast<unsigned long long>(tb.easy()->writes_offloaded()),
                static_cast<unsigned long long>(tb.easy()->reads_offloaded()));
  });
  tb.sim().Run();
  return all_ok ? 0 : 1;
}
