// Counters-and-gauges snapshot: a plain-struct view of what every simulated
// actor has done so far, cheap enough to collect at any point of a run.
//
// Unlike the event tracer (trace.h), these are *cumulative* counters the
// instrumented layers maintain unconditionally — they are plain integer
// increments on paths that already do bookkeeping, so they need no
// enable/disable gate. harness::Testbed::CollectStats() fills a
// StatsSnapshot from a live testbed; benches print it with Print() behind
// their --stats/--trace flags. The field glossary lives in
// docs/OBSERVABILITY.md.

#ifndef EASYIO_OBS_STATS_H_
#define EASYIO_OBS_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"

namespace easyio::obs {

struct CoreStats {
  int core = 0;
  uint64_t busy_ns = 0;       // virtual ns this core ran a task
  uint64_t run_queue = 0;     // runnable tasks queued right now
  double busy_fraction = 0;   // busy_ns / snapshot time
};

struct ChannelStats {
  int id = 0;
  uint64_t bytes_completed = 0;
  uint64_t descriptors_completed = 0;
  uint64_t queue_depth = 0;   // descriptors pending right now
  bool suspended = false;
  // Fault-injection/recovery counters (all zero without an injector; the
  // Print() line for them is emitted only when one is nonzero, so output
  // is unchanged when injection is off).
  uint64_t transfer_errors = 0;
  uint64_t retries = 0;
  uint64_t software_completions = 0;
  uint64_t stalls_injected = 0;
  uint64_t torn_records = 0;
  uint64_t record_repairs = 0;
};

struct FsStats {
  std::string name;
  uint64_t ops_read = 0;
  uint64_t ops_write = 0;     // Write + Append entry points
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_cpu = 0;     // data moved by CPU memcpy paths
  uint64_t bytes_dma = 0;     // data moved by DMA offload paths
  uint64_t log_compactions = 0;
};

// Percentile summary of a common/histogram, for embedding latency series in
// the snapshot without copying the whole bucket array.
struct LatencySummary {
  uint64_t count = 0;
  double mean_ns = 0;
  uint64_t min_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
};
LatencySummary Summarize(const Histogram& h);

struct StatsSnapshot {
  uint64_t now_ns = 0;
  uint64_t context_switches = 0;
  uint64_t tasks_spawned = 0;   // tasks ever spawned (sim ids handed out)
  uint64_t events_scheduled = 0;  // event records ever scheduled
  uint64_t pmem_barriers = 0;   // persistence barriers on the device
  std::vector<CoreStats> cores;
  std::vector<ChannelStats> channels;
  std::vector<FsStats> fs;
  // Named latency series the caller recorded (e.g. "write_us").
  std::vector<std::pair<std::string, LatencySummary>> latencies;

  void AddLatency(const std::string& name, const Histogram& h) {
    latencies.emplace_back(name, Summarize(h));
  }
  // Flat `section.key=value` dump, one datum per line (grep/cut friendly).
  void Print(std::FILE* out) const;
};

}  // namespace easyio::obs

#endif  // EASYIO_OBS_STATS_H_
