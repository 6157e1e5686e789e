#include "src/fxmark/fxmark.h"

#include <algorithm>
#include <cassert>

#include "src/common/rng.h"
#include "src/harness/window.h"

namespace easyio::fxmark {

RunResult Run(const RunConfig& config) {
  harness::Testbed tb(config.testbed);
  sim::Simulation& sim = tb.sim();

  const bool is_easy = config.testbed.fs == harness::FsKind::kEasy ||
                       config.testbed.fs == harness::FsKind::kEasyNaive;
  const int uthreads_per_core = is_easy ? config.uthreads_per_core : 1;
  const int workers = config.cores * uthreads_per_core;
  const bool shared_file = config.workload == Workload::kDWOM;
  const int files = shared_file ? 1 : workers;

  // ---- setup phase: preallocate files with one streaming writer ----
  std::vector<int> fds(static_cast<size_t>(workers));
  sim.Spawn(0, [&] {
    std::vector<std::byte> block(1_MB, std::byte{0x5a});
    for (int f = 0; f < files; ++f) {
      const std::string path = "/fx" + std::to_string(f);
      int fd = *tb.fs().Create(path);
      for (uint64_t off = 0; off < config.file_bytes; off += block.size()) {
        const size_t n =
            std::min<uint64_t>(block.size(), config.file_bytes - off);
        EASYIO_CHECK_OK(
            tb.fs().Write(fd, off, std::span(block).subspan(0, n)).status());
      }
      if (shared_file) {
        for (int w = 0; w < workers; ++w) {
          fds[static_cast<size_t>(w)] = fd;
        }
      } else {
        fds[static_cast<size_t>(f)] = fd;
      }
    }
  });
  sim.Run();

  // ---- measured phase ----
  // Workers share one host thread, so they tally straight into the result.
  RunResult result;
  uint64_t total_cpu = 0;
  const uint64_t blocks_per_file =
      std::max<uint64_t>(1, config.file_bytes / config.io_size);

  harness::RunWindow(
      tb, config.cores, /*work_stealing=*/is_easy, workers, config.warmup_ns,
      config.measure_ns, [&](int w, const harness::WindowFlags& window) {
        Rng rng(config.seed * 7919 + static_cast<uint64_t>(w));
        std::vector<std::byte> buf(config.io_size);
        for (auto& b : buf) {
          b = static_cast<std::byte>(rng.Next());
        }
        const int fd = fds[static_cast<size_t>(w)];
        uint64_t seq_block = 0;
        while (!window.stop) {
          const uint64_t block = config.workload == Workload::kDWAL
                                     ? seq_block++ % blocks_per_file
                                     : rng.Below(blocks_per_file);
          const uint64_t off = block * config.io_size;
          fs::OpStats st;
          if (config.workload == Workload::kDRBL) {
            EASYIO_CHECK_OK(tb.fs().Read(fd, off, buf, &st).status());
          } else {
            EASYIO_CHECK_OK(tb.fs().Write(fd, off, buf, &st).status());
          }
          if (window.counting()) {
            result.latency.Record(st.total_ns);
            total_cpu += st.cpu_ns;
            result.ops++;
          }
        }
      });

  result.mops = static_cast<double>(result.ops) /
                (static_cast<double>(config.measure_ns) / 1e9) / 1e6;
  result.gib_per_sec =
      GibPerSec(result.ops * config.io_size, config.measure_ns);
  result.avg_cpu_ns =
      result.ops == 0 ? 0
                      : static_cast<double>(total_cpu) /
                            static_cast<double>(result.ops);
  result.avg_latency_ns = result.latency.Mean();
  result.p99_ns = result.latency.P99();
  result.stats = tb.CollectStats();
  return result;
}

std::vector<fs::OpStats> Probe(harness::Testbed& tb, bool is_write,
                               uint64_t io_size) {
  constexpr uint64_t kFileBytes = 4_MB;
  std::vector<fs::OpStats> out(kProbeOps);
  tb.sim().Spawn(0, [&] {
    Rng rng(1);
    int fd = *tb.fs().Create("/f");
    std::vector<std::byte> buf(io_size, std::byte{0x33});
    for (uint64_t off = 0; off < kFileBytes; off += io_size) {
      EASYIO_CHECK_OK(tb.fs().Write(fd, off, buf).status());
    }
    const uint64_t blocks = kFileBytes / io_size;
    for (fs::OpStats& st : out) {
      const uint64_t off = rng.Below(blocks) * io_size;
      if (is_write) {
        EASYIO_CHECK_OK(tb.fs().Write(fd, off, buf, &st).status());
      } else {
        EASYIO_CHECK_OK(tb.fs().Read(fd, off, buf, &st).status());
      }
    }
  });
  tb.sim().Run();
  return out;
}

int CoresAtPeak(const std::vector<CoreSweepPoint>& sweep, double fraction) {
  double peak = 0;
  for (const auto& point : sweep) {
    peak = std::max(peak, point.result.mops);
  }
  for (const auto& point : sweep) {
    if (point.result.mops >= fraction * peak) {
      return point.cores;
    }
  }
  return sweep.empty() ? 0 : sweep.back().cores;
}

}  // namespace easyio::fxmark
