#include "src/obs/stats.h"

#include <cinttypes>

namespace easyio::obs {

LatencySummary Summarize(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  if (s.count == 0) return s;
  s.mean_ns = h.Mean();
  s.min_ns = h.min();
  s.p50_ns = h.P50();
  s.p99_ns = h.P99();
  s.p999_ns = h.P999();
  s.max_ns = h.max();
  return s;
}

void StatsSnapshot::Print(std::FILE* out) const {
  std::fprintf(out, "stats.now_ns=%" PRIu64 "\n", now_ns);
  std::fprintf(out, "stats.context_switches=%" PRIu64 "\n", context_switches);
  std::fprintf(out, "stats.tasks_spawned=%" PRIu64 "\n", tasks_spawned);
  std::fprintf(out, "stats.events_scheduled=%" PRIu64 "\n", events_scheduled);
  std::fprintf(out, "stats.pmem_barriers=%" PRIu64 "\n", pmem_barriers);
  for (const CoreStats& c : cores) {
    std::fprintf(out,
                 "core[%d].busy_ns=%" PRIu64 " core[%d].busy_frac=%.3f "
                 "core[%d].run_queue=%" PRIu64 "\n",
                 c.core, c.busy_ns, c.core, c.busy_fraction, c.core,
                 c.run_queue);
  }
  for (const ChannelStats& ch : channels) {
    std::fprintf(out,
                 "chan[%d].bytes=%" PRIu64 " chan[%d].descs=%" PRIu64
                 " chan[%d].qdepth=%" PRIu64 " chan[%d].suspended=%d\n",
                 ch.id, ch.bytes_completed, ch.id, ch.descriptors_completed,
                 ch.id, ch.queue_depth, ch.id, ch.suspended ? 1 : 0);
    if (ch.transfer_errors != 0 || ch.retries != 0 ||
        ch.software_completions != 0 || ch.stalls_injected != 0 ||
        ch.torn_records != 0 || ch.record_repairs != 0) {
      std::fprintf(out,
                   "chan[%d].xfer_errors=%" PRIu64 " chan[%d].retries=%" PRIu64
                   " chan[%d].sw_completions=%" PRIu64
                   " chan[%d].stalls=%" PRIu64 " chan[%d].torn=%" PRIu64
                   " chan[%d].record_repairs=%" PRIu64 "\n",
                   ch.id, ch.transfer_errors, ch.id, ch.retries, ch.id,
                   ch.software_completions, ch.id, ch.stalls_injected, ch.id,
                   ch.torn_records, ch.id, ch.record_repairs);
    }
  }
  for (const FsStats& f : fs) {
    std::fprintf(out,
                 "fs[%s].ops_read=%" PRIu64 " fs[%s].ops_write=%" PRIu64
                 " fs[%s].bytes_read=%" PRIu64 " fs[%s].bytes_written=%" PRIu64
                 " fs[%s].bytes_cpu=%" PRIu64 " fs[%s].bytes_dma=%" PRIu64
                 " fs[%s].log_compactions=%" PRIu64 "\n",
                 f.name.c_str(), f.ops_read, f.name.c_str(), f.ops_write,
                 f.name.c_str(), f.bytes_read, f.name.c_str(), f.bytes_written,
                 f.name.c_str(), f.bytes_cpu, f.name.c_str(), f.bytes_dma,
                 f.name.c_str(), f.log_compactions);
  }
  for (const auto& [name, l] : latencies) {
    std::fprintf(out,
                 "lat[%s].count=%" PRIu64 " lat[%s].mean_ns=%.1f "
                 "lat[%s].p50_ns=%" PRIu64 " lat[%s].p99_ns=%" PRIu64
                 " lat[%s].p999_ns=%" PRIu64 " lat[%s].max_ns=%" PRIu64 "\n",
                 name.c_str(), l.count, name.c_str(), l.mean_ns, name.c_str(),
                 l.p50_ns, name.c_str(), l.p99_ns, name.c_str(), l.p999_ns,
                 name.c_str(), l.max_ns);
  }
}

}  // namespace easyio::obs
