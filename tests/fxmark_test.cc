// Tests of the FxMark harness: all three workloads produce sane results on
// each filesystem, and the headline Fig 9 relationships hold at small scale.

#include <gtest/gtest.h>

#include <string>

#include "src/fxmark/fxmark.h"

namespace easyio::fxmark {
namespace {

RunConfig Quick(harness::FsKind fs, Workload w, int cores) {
  RunConfig cfg;
  cfg.testbed.fs = fs;
  cfg.workload = w;
  cfg.cores = cores;
  cfg.io_size = 16_KB;
  cfg.uthreads_per_core = 2;
  cfg.warmup_ns = 3_ms;
  cfg.measure_ns = 20_ms;
  return cfg;
}

TEST(FxmarkTest, DwalProducesThroughputAndLatency) {
  const auto r = fxmark::Run(Quick(harness::FsKind::kNova, Workload::kDWAL, 2));
  EXPECT_GT(r.ops, 100u);
  EXPECT_GT(r.mops, 0.0);
  EXPECT_GT(r.avg_latency_ns, 1000.0);
  EXPECT_GE(r.p99_ns, static_cast<uint64_t>(r.avg_latency_ns * 0.8));
  EXPECT_NEAR(r.gib_per_sec,
              r.mops * 1e6 * 16_KB / kGiB, r.gib_per_sec * 0.01);
}

TEST(FxmarkTest, DrblReadsScaleWithCores) {
  const auto r1 = fxmark::Run(Quick(harness::FsKind::kNova, Workload::kDRBL, 1));
  const auto r4 = fxmark::Run(Quick(harness::FsKind::kNova, Workload::kDRBL, 4));
  EXPECT_GT(r4.mops, r1.mops * 3.0);  // reads scale ~linearly at low counts
}

TEST(FxmarkTest, DwomSharedFileContends) {
  const auto r1 = fxmark::Run(Quick(harness::FsKind::kNova, Workload::kDWOM, 1));
  const auto r8 = fxmark::Run(Quick(harness::FsKind::kNova, Workload::kDWOM, 8));
  // A shared file serializes writers: nowhere near 8x.
  EXPECT_LT(r8.mops, r1.mops * 4.0);
}

TEST(FxmarkTest, EasyIoUsesFewerCoresForPeakWrites) {
  auto sweep_easy = SweepCores(Quick(harness::FsKind::kEasy, Workload::kDWAL,
                                     0),
                               {1, 2, 4, 8, 12});
  auto sweep_nova = SweepCores(Quick(harness::FsKind::kNova, Workload::kDWAL,
                                     0),
                               {1, 2, 4, 8, 12});
  const int easy_cores = CoresAtPeak(sweep_easy, 0.95);
  const int nova_cores = CoresAtPeak(sweep_nova, 0.95);
  EXPECT_LT(easy_cores, nova_cores);  // the paper's headline claim
  // And the peak itself is at least comparable.
  double easy_peak = 0;
  double nova_peak = 0;
  for (const auto& p : sweep_easy) {
    easy_peak = std::max(easy_peak, p.result.mops);
  }
  for (const auto& p : sweep_nova) {
    nova_peak = std::max(nova_peak, p.result.mops);
  }
  EXPECT_GT(easy_peak, nova_peak * 0.95);
}

TEST(FxmarkTest, EasyIoWritesUseLessCpuPerOp) {
  const auto nova = fxmark::Run(Quick(harness::FsKind::kNova, Workload::kDWAL, 2));
  const auto easy = fxmark::Run(Quick(harness::FsKind::kEasy, Workload::kDWAL, 2));
  EXPECT_LT(easy.avg_cpu_ns, nova.avg_cpu_ns * 0.75);
}

TEST(FxmarkTest, DeterministicAcrossRuns) {
  const auto a = fxmark::Run(Quick(harness::FsKind::kEasy, Workload::kDWAL, 2));
  const auto b = fxmark::Run(Quick(harness::FsKind::kEasy, Workload::kDWAL, 2));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
}

// Deterministic work done by a run: a change that adds context switches,
// tasks, barriers, DMA descriptors or kernel events per op moves these
// counts exactly, on any host and at any optimization level.
struct WorkCounts {
  uint64_t ops = 0;
  uint64_t switches = 0;
  uint64_t tasks = 0;
  uint64_t barriers = 0;
  uint64_t descs = 0;
  uint64_t events = 0;
};

std::string Format(const WorkCounts& w) {
  return "{" + std::to_string(w.ops) + ", " + std::to_string(w.switches) +
         ", " + std::to_string(w.tasks) + ", " + std::to_string(w.barriers) +
         ", " + std::to_string(w.descs) + ", " + std::to_string(w.events) +
         "}";
}

struct PinnedCase {
  const char* name;
  harness::FsKind fs;
  Workload workload;
  uint64_t io_size;
  WorkCounts expected;
};

WorkCounts CountWork(const PinnedCase& c) {
  RunConfig cfg;
  cfg.testbed.fs = c.fs;
  cfg.workload = c.workload;
  cfg.cores = 4;
  cfg.uthreads_per_core = 2;  // EasyIO only; Run() uses 1 for the others
  cfg.io_size = c.io_size;
  cfg.file_bytes = 4_MB;
  cfg.warmup_ns = 500_us;
  cfg.measure_ns = 2_ms;
  cfg.testbed.device_bytes = 512_MB;
  cfg.testbed.machine_cores = 8;
  const RunResult r = fxmark::Run(cfg);
  WorkCounts w{r.ops, r.stats.context_switches, r.stats.tasks_spawned,
               r.stats.pmem_barriers, 0, r.stats.events_scheduled};
  for (const obs::ChannelStats& ch : r.stats.channels) {
    w.descs += ch.descriptors_completed;
  }
  return w;
}

// Pins {ops, context switches, tasks spawned, barriers, DMA descriptors,
// events scheduled} of small EasyIO and NOVA runs. After a deliberate model
// change, paste the printed counts into the table and say why in CHANGES.md.
TEST(FxmarkTest, WorkCountsMatchPinnedTable) {
  using harness::FsKind;
  const PinnedCase kCases[] = {
      {"easyio_dwal_4k", FsKind::kEasy, Workload::kDWAL, 4_KB,
       {1684, 14957, 10, 6576, 32, 18286}},
      {"easyio_dwal_64k", FsKind::kEasy, Workload::kDWAL, 64_KB,
       {417, 2772, 10, 1779, 557, 5050}},
      {"easyio_drbl_4k", FsKind::kEasy, Workload::kDRBL, 4_KB,
       {2660, 13417, 10, 188, 32, 18576}},
      {"easyio_drbl_64k", FsKind::kEasy, Workload::kDRBL, 64_KB,
       {196, 1617, 10, 440, 284, 2918}},
      {"nova_dwal_4k", FsKind::kNova, Workload::kDWAL, 4_KB,
       {1684, 14874, 6, 6476, 0, 18091}},
      {"nova_drbl_64k", FsKind::kNova, Workload::kDRBL, 64_KB,
       {520, 2630, 6, 88, 0, 3663}},
  };
  std::string table;
  for (const PinnedCase& c : kCases) {
    const std::string got = Format(CountWork(c));
    EXPECT_EQ(got, Format(c.expected)) << c.name;
    table += std::string("  ") + c.name + " " + got + "\n";
  }
  if (HasFailure()) {
    ADD_FAILURE() << "actual work counts:\n" << table;
  }
}

TEST(FxmarkTest, CoresAtPeakPicksMinimum) {
  std::vector<CoreSweepPoint> sweep;
  for (int c : {1, 2, 4, 8}) {
    CoreSweepPoint p;
    p.cores = c;
    p.result.mops = c >= 4 ? 1.0 : 0.2 * c;
    sweep.push_back(p);
  }
  EXPECT_EQ(CoresAtPeak(sweep, 0.95), 4);
}

}  // namespace
}  // namespace easyio::fxmark
