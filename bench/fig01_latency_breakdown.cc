// Figure 1: latency breakdown of NOVA — metadata, memcpy, indexing,
// syscall & VFS — for single-threaded writes and reads of 4K..64K.
//
// Paper shape: the memcpy share grows with I/O size, reaching ~63% for
// writes and ~95% for reads at 64K.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/fxmark/fxmark.h"
#include "src/harness/testbed.h"
#include "src/sim/obs_session.h"

namespace easyio {
namespace {

struct Breakdown {
  double total_us = 0;
  double meta_us = 0;
  double memcpy_us = 0;
  double index_us = 0;
  double syscall_us = 0;
};

Breakdown Measure(bool is_write, uint64_t io_size,
                  const bench::Flags* flags) {
  harness::TestbedConfig cfg;
  cfg.fs = harness::FsKind::kNova;
  cfg.machine_cores = 2;
  cfg.device_bytes = 256_MB;
  harness::Testbed tb(cfg);
  std::unique_ptr<sim::TraceSession> session;
  if (flags != nullptr) {
    session = std::make_unique<sim::TraceSession>(flags->trace,
                                                  flags->trace_sample);
  }

  Breakdown out;
  for (const fs::OpStats& st : fxmark::Probe(tb, is_write, io_size)) {
    out.total_us += st.total_ns / 1e3;
    out.meta_us += st.meta_ns / 1e3;
    out.memcpy_us += st.data_ns / 1e3;
    out.index_us += st.index_ns / 1e3;
    out.syscall_us += st.syscall_ns / 1e3;
  }
  if (session != nullptr) {
    tb.CollectStats().Print(stderr);
  }
  out.total_us /= fxmark::kProbeOps;
  out.meta_us /= fxmark::kProbeOps;
  out.memcpy_us /= fxmark::kProbeOps;
  out.index_us /= fxmark::kProbeOps;
  out.syscall_us /= fxmark::kProbeOps;
  return out;
}

}  // namespace
}  // namespace easyio

int main(int argc, char** argv) {
  using namespace easyio;
  // --trace=<path> records the 64K-write run (the paper's headline
  // breakdown); small op count, so every op is sampled by default.
  const bench::Flags flags = bench::ParseFlags(
      argc, argv, bench::Flags::kTrace, /*default_trace_sample=*/1);
  bench::PrintHeader(
      "Figure 1: Latency breakdown of NOVA (single thread, us per op)");
  std::printf("%-6s %-5s %9s %9s %9s %9s %9s %8s\n", "op", "io", "total",
              "metadata", "memcpy", "indexing", "syscall", "memcpy%");
  for (bool is_write : {true, false}) {
    for (uint64_t io : {4_KB, 8_KB, 16_KB, 32_KB, 64_KB}) {
      const bool traced = is_write && io == 64_KB && flags.tracing();
      const auto b = Measure(is_write, io, traced ? &flags : nullptr);
      std::printf("%-6s %-5s %9.2f %9.2f %9.2f %9.2f %9.2f %7.1f%%\n",
                  is_write ? "write" : "read", bench::SizeName(io).c_str(), b.total_us,
                  b.meta_us, b.memcpy_us, b.index_us, b.syscall_us,
                  100.0 * b.memcpy_us / b.total_us);
    }
  }
  std::printf(
      "\nExpected shape (paper): memcpy share grows with I/O size, to ~63%%\n"
      "for 64K writes and ~95%% for 64K reads.\n");
  return 0;
}
