#include "src/fxmark/fxmark.h"

#include <algorithm>
#include <cassert>

#include "src/common/rng.h"
#include "src/harness/scenario_runner.h"

namespace easyio::fxmark {

namespace {

struct SharedState {
  bool measuring = false;
  bool stop = false;
};

}  // namespace

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
  auto* sched = tb.MakeScheduler(config.cores, /*work_stealing=*/is_easy);
  SharedState state;
  std::vector<Histogram> lat(static_cast<size_t>(workers));
  std::vector<uint64_t> cpu_sum(static_cast<size_t>(workers), 0);
  std::vector<uint64_t> ops(static_cast<size_t>(workers), 0);
  std::vector<uint64_t> bytes(static_cast<size_t>(workers), 0);

  const sim::SimTime t_start = sim.now();
  sim.ScheduleAt(t_start + config.warmup_ns,
                 [&state] { state.measuring = true; });
  sim.ScheduleAt(t_start + config.warmup_ns + config.measure_ns,
                 [&state] { state.stop = true; });

  const uint64_t blocks_per_file =
      std::max<uint64_t>(1, config.file_bytes / config.io_size);

  for (int w = 0; w < workers; ++w) {
    const int core = w % config.cores;
    sched->SpawnOn(core, [&, w] {
      Rng rng(config.seed * 7919 + static_cast<uint64_t>(w));
      std::vector<std::byte> buf(config.io_size);
      for (auto& b : buf) {
        b = static_cast<std::byte>(rng.Next());
      }
      const int fd = fds[static_cast<size_t>(w)];
      uint64_t seq_block = 0;
      while (!state.stop) {
        uint64_t off = 0;
        switch (config.workload) {
          case Workload::kDWAL:
            off = (seq_block++ % blocks_per_file) * config.io_size;
            break;
          case Workload::kDRBL:
          case Workload::kDWOM:
            off = rng.Below(blocks_per_file) * config.io_size;
            break;
        }
        fs::OpStats st;
        if (config.workload == Workload::kDRBL) {
          EASYIO_CHECK_OK(tb.fs().Read(fd, off, buf, &st).status());
        } else {
          EASYIO_CHECK_OK(tb.fs().Write(fd, off, buf, &st).status());
        }
        if (state.measuring && !state.stop) {
          lat[static_cast<size_t>(w)].Record(st.total_ns);
          cpu_sum[static_cast<size_t>(w)] += st.cpu_ns;
          ops[static_cast<size_t>(w)]++;
          bytes[static_cast<size_t>(w)] += config.io_size;
        }
      }
    });
  }
  sim.Run();

  RunResult result;
  uint64_t total_cpu = 0;
  uint64_t total_bytes = 0;
  for (int w = 0; w < workers; ++w) {
    result.ops += ops[static_cast<size_t>(w)];
    total_cpu += cpu_sum[static_cast<size_t>(w)];
    total_bytes += bytes[static_cast<size_t>(w)];
    result.latency.Merge(lat[static_cast<size_t>(w)]);
  }
  result.mops = static_cast<double>(result.ops) /
                (static_cast<double>(config.measure_ns) / 1e9) / 1e6;
  result.gib_per_sec = GibPerSec(total_bytes, config.measure_ns);
  result.avg_cpu_ns =
      result.ops == 0 ? 0
                      : static_cast<double>(total_cpu) /
                            static_cast<double>(result.ops);
  result.avg_latency_ns = result.latency.Mean();
  result.p99_ns = result.latency.P99();
  result.stats = tb.CollectStats();
  return result;
}

std::vector<CoreSweepPoint> SweepCores(RunConfig config,
                                       const std::vector<int>& core_counts,
                                       int jobs) {
  return harness::RunIndexed(jobs, core_counts.size(), [&](size_t i) {
    RunConfig point_cfg = config;
    point_cfg.cores = core_counts[i];
    return CoreSweepPoint{core_counts[i], Run(point_cfg)};
  });
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
