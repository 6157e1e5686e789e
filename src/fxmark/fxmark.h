// FxMark-style microbenchmark harness (paper §6.2, [ATC'16]).
//
// Reproduces the three workloads the paper evaluates:
//   DWAL - each worker writes sequentially through its private, preallocated
//          file (wrapping at the end); the paper's append-to-private-log
//          pattern with bounded space, since NOVA's CoW makes append and
//          overwrite cost-identical.
//   DRBL - each worker reads random io_size-aligned blocks of its private
//          file.
//   DWOM - all workers overwrite random blocks of one shared file (the
//          lock-contention workload of Fig 11).
//
// Workers run as uthreads: synchronous filesystems get one pinned worker per
// core; EasyIO gets `uthreads_per_core` (2 in the paper) multiplexed by the
// Caladan-style scheduler. Results aggregate throughput, latency
// distribution, and per-op CPU time over a warmup + measurement window of
// virtual time; the window itself is harness::RunWindow
// (src/harness/window.h), which the applications and Fig 11 share.
//
// Probe is the other measurement shape: one thread timing kProbeOps ops
// (Figs 1, 8 and 11's left panel).

#ifndef EASYIO_FXMARK_FXMARK_H_
#define EASYIO_FXMARK_FXMARK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/units.h"
#include "src/harness/testbed.h"

namespace easyio::fxmark {

enum class Workload { kDWAL, kDRBL, kDWOM };

inline const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDWAL: return "DWAL";
    case Workload::kDRBL: return "DRBL";
    case Workload::kDWOM: return "DWOM";
  }
  return "?";
}

struct RunConfig {
  // The machine and filesystem under test (FS kind, cores, device, media
  // model, EasyIO options, DMA fault plan).
  harness::TestbedConfig testbed;
  Workload workload = Workload::kDWAL;
  int cores = 1;
  int uthreads_per_core = 1;     // paper uses 2 for EasyIO
  uint64_t io_size = 16_KB;
  uint64_t file_bytes = 4_MB;    // private file size (shared file for DWOM)
  uint64_t warmup_ns = 10_ms;
  uint64_t measure_ns = 60_ms;
  uint64_t seed = 42;
};

struct RunResult {
  uint64_t ops = 0;
  double mops = 0;             // measured throughput, million ops/s
  double gib_per_sec = 0;      // data throughput
  Histogram latency;           // per-op end-to-end
  double avg_cpu_ns = 0;       // mean CPU time per op
  double avg_latency_ns = 0;
  uint64_t p99_ns = 0;
  // Testbed counters at the end of the run (set-up, warm-up and window):
  // deterministic work counts such as context switches and barriers.
  obs::StatsSnapshot stats;
};

// Runs one configuration to completion (builds its own Testbed).
RunResult Run(const RunConfig& config);

// One point of a core-count sweep, and the minimum core count that reaches
// `fraction` (e.g. 0.95) of the sweep's peak throughput — the paper's
// "cores at peak" tables in Fig 9.
struct CoreSweepPoint {
  int cores;
  RunResult result;
};
int CoresAtPeak(const std::vector<CoreSweepPoint>& sweep, double fraction);

// Single-thread latency probe on an already-built testbed (so a caller can
// open a TraceSession first). On core 0 it creates /f, prefills 4 MiB with
// io_size writes of 0x33, then times kProbeOps reads or writes at
// Rng(1)-drawn, io_size-aligned offsets. Returns each timed op's OpStats in
// issue order.
inline constexpr int kProbeOps = 200;
std::vector<fs::OpStats> Probe(harness::Testbed& tb, bool is_write,
                               uint64_t io_size);

}  // namespace easyio::fxmark

#endif  // EASYIO_FXMARK_FXMARK_H_
