// hostbench: what regenerating the EasyIO simulator's results costs on the
// host, end to end and layer by layer.
//
//   hostbench --workload <fxmark_small|fxmark_large|figure_grid|crash_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--out-dir <dir>]
//
// A run repeats rounds of the workload until --seconds have passed and
// reports medians over rounds. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (README.md lists both).
// Spans and the host fingerprint are written under --out-dir.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hostbench/hostbench.h"
#include "src/harness/scenario_runner.h"

namespace hostbench {
namespace {

namespace easy = easyio;
using easy::crashmonkey::CrashWorkload;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

// One round of a workload: every case, cell or crash sweep once.
struct Round {
  bool traced = false;
  double round_s = 0;  // wall, set-up included
  uint64_t timed_ops = 0;  // FS ops completed in the timed parts
  double timed_s = 0;      // host s of the timed parts
  double setup_s = 0;
  Counts counts;
  HostCost host;
  std::vector<double> job_s;
  int jobs = 1;  // ScenarioRunner workers
  double user_s = 0;
  double sys_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  // crash_sweep only
  int crash_points = 0;
  double crash_s = 0;  // host s inside RunCrashTest
  int crash_calls = 0;
};

double CpuSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

// Wraps one round: wall time and process CPU time around `body`.
Round TimedRound(bool traced, const std::function<void(Round*)>& body) {
  Round r;
  r.traced = traced;
  GlobalTracer().set_enabled(traced);
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  {
    Span span("round", &r.round_s);
    body(&r);
  }
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  GlobalTracer().set_enabled(false);
  r.user_s = CpuSeconds(ru1.ru_utime) - CpuSeconds(ru0.ru_utime);
  r.sys_s = CpuSeconds(ru1.ru_stime) - CpuSeconds(ru0.ru_stime);
  return r;
}

// Runs fs cases through the ScenarioRunner with `jobs` workers.
void RunCases(const std::vector<CaseSpec>& cases, uint64_t seed, int jobs,
              Round* r) {
  r->jobs = jobs;
  const std::vector<CaseResult> results = easy::harness::RunIndexed(
      jobs, cases.size(), [&](size_t i) { return RunCase(cases[i], seed); });
  Digest d;
  for (const CaseResult& c : results) {
    r->counts.Add(c.counts);
    r->host.Add(c.host);
    r->job_s.push_back(c.host.job_s);
    r->timed_ops += c.counts.ops;
    r->timed_s += c.host.window_s;
    r->attempted += c.attempted;
    r->failed += c.failed;
    c.counts.AddTo(&d);
  }
  r->setup_s = r->host.setup_s();
  r->digest = d.value();
}

// ------------------------------------------------------------ workloads ----

struct Sizes {
  double window_scale = 1;  // virtual window length
  int crash_points = 10;    // sampled crash points per Table 2 workload
  int crash_repeats = 10;   // straight passes of each crash workload
};

std::vector<CaseSpec> FxmarkSmall(const Sizes& z) {
  std::vector<CaseSpec> out;
  for (FsKind fs : {FsKind::kEasy, FsKind::kNova}) {
    for (Op op : {Op::kDWAL, Op::kDRBL}) {
      CaseSpec c;
      c.fs = fs;
      c.op = op;
      c.io_size = 4096;
      c.warmup_ns = static_cast<uint64_t>(2e6 * z.window_scale);
      c.window_ns = static_cast<uint64_t>(40e6 * z.window_scale);
      out.push_back(c);
    }
  }
  return out;
}

std::vector<CaseSpec> FxmarkLarge(const Sizes& z) {
  struct Shape {
    FsKind fs;
    Op op;
    uint64_t io;
  };
  const Shape shapes[] = {{FsKind::kEasy, Op::kDWAL, 65536},
                          {FsKind::kEasy, Op::kDRBL, 65536},
                          {FsKind::kNovaDma, Op::kDWAL, 65536},
                          {FsKind::kEasy, Op::kDWOM, 16384},
                          {FsKind::kNova, Op::kDRBL, 65536}};
  std::vector<CaseSpec> out;
  for (const Shape& s : shapes) {
    CaseSpec c;
    c.fs = s.fs;
    c.op = s.op;
    c.io_size = s.io;
    c.warmup_ns = static_cast<uint64_t>(2e6 * z.window_scale);
    c.window_ns = static_cast<uint64_t>(40e6 * z.window_scale);
    out.push_back(c);
  }
  return out;
}

// The fig09 shape: 4 filesystems x {1, 2, 4, 8, 16} cores on the 36-core
// testbed, 16K DWAL, short windows. OdinFS reserves 24 of the 36 cores for
// delegation threads, so (as in fig09) it stops at 8 worker cores. Cells
// are submitted largest first (most cores, so most files to prefill): the
// longest jobs then never trail the grid, and the two largest always run
// side by side, which keeps the round's makespan and peak RSS steady.
std::vector<CaseSpec> FigureGrid(const Sizes& z) {
  std::vector<CaseSpec> out;
  for (int cores : {16, 8, 4, 2, 1}) {
    for (FsKind fs : {FsKind::kEasy, FsKind::kNova, FsKind::kNovaDma,
                      FsKind::kOdin}) {
      if (fs == FsKind::kOdin && cores > 12) {
        continue;
      }
      CaseSpec c;
      c.fs = fs;
      c.op = Op::kDWAL;
      c.io_size = 16384;
      c.cores = cores;
      c.machine_cores = 36;
      c.device_bytes = 1ull << 30;
      c.warmup_ns = static_cast<uint64_t>(0.5e6 * z.window_scale);
      c.window_ns = static_cast<uint64_t>(2e6 * z.window_scale);
      out.push_back(c);
    }
  }
  return out;
}

// The Table 2 workload that runs again under the seeded DMA fault plan: the
// one with the largest writes, so most of its data moves by DMA.
constexpr size_t kFaultWorkload = 3;  // generic_322

// `workloads` are StandardWorkloads(seed), built once per run: they are the
// run's inputs, and their construction (allocation-bound, noisy) is
// reported as the crash workload's prefill, not as its set-up.
void CrashSweepRound(const std::vector<CrashWorkload>& workloads,
                     uint64_t seed, const Sizes& z, Round* r) {
  const easy::dma::FaultPlan plan = CrashFaultPlan(seed);
  // Jobs 0..4: straight passes (the four workloads, then the fault pass);
  // jobs 5..9: RunCrashTest on the same five.
  const size_t n = workloads.size() + 1;
  auto workload_of = [&](size_t j) -> const CrashWorkload& {
    return workloads[j < workloads.size() ? j : kFaultWorkload];
  };
  auto faults_of = [&](size_t j) {
    return j < workloads.size() ? nullptr : &plan;
  };
  struct JobOut {
    CrashPassResult pass;
    easy::crashmonkey::CrashTestResult crash;
    double crash_s = 0;
    double job_s = 0;
    bool threw = false;
  };
  const std::vector<JobOut> outs =
      easy::harness::RunIndexed(1, 2 * n, [&](size_t j) {
        JobOut o;
        ScenarioScope scenario;
        {
          Span span("harness.job", &o.job_s);
          const size_t w = j % n;
          try {
            if (j < n) {
              // Counts, faults and allocations are those of one pass;
              // the host seconds add up over the repeats.
              double setup_s = 0;
              double run_s = 0;
              for (int k = 0; k < z.crash_repeats; ++k) {
                o.pass = RunCrashWorkload(workload_of(w), faults_of(w));
                setup_s += o.pass.setup_s;
                run_s += o.pass.run_s;
              }
              o.pass.setup_s = setup_s;
              o.pass.run_s = run_s;
            } else {
              Span crash_span("crashmonkey.RunCrashTest", &o.crash_s);
              o.crash = easy::crashmonkey::RunCrashTest(
                  workload_of(w), z.crash_points,
                  easy::crashmonkey::DefaultCrashFsOptions(), faults_of(w));
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "hostbench: crash job %zu threw: %s\n", j,
                         e.what());
            o.threw = true;
          }
        }
        return o;
      });
  Digest d;
  for (size_t j = 0; j < outs.size(); ++j) {
    const JobOut& o = outs[j];
    r->job_s.push_back(o.job_s);
    if (o.threw) {
      r->attempted++;
      r->failed++;
      continue;
    }
    if (j < n) {
      r->counts.Add(o.pass.counts);
      r->timed_ops += o.pass.counts.ops * z.crash_repeats;
      r->timed_s += o.pass.run_s;
      r->setup_s += o.pass.setup_s;
      r->host.testbed_s += o.pass.setup_s;
      r->host.testbeds += z.crash_repeats;
      r->host.setup_minflt += o.pass.setup_minflt;
      r->host.run_minflt += o.pass.run_minflt;
      r->host.window_allocs += o.pass.run_allocs;
      r->attempted += o.pass.counts.ops * z.crash_repeats;
      o.pass.counts.AddTo(&d);
    } else {
      r->crash_points += o.crash.total_points;
      r->crash_s += o.crash_s;
      r->crash_calls++;
      r->attempted += static_cast<uint64_t>(o.crash.total_points);
      r->failed +=
          static_cast<uint64_t>(o.crash.total_points - o.crash.passed);
      for (const std::string& f : o.crash.failures) {
        std::fprintf(stderr, "hostbench: crash point failed: %s\n",
                     f.c_str());
      }
      d.Add(static_cast<uint64_t>(o.crash.total_points));
      d.Add(static_cast<uint64_t>(o.crash.passed));
    }
  }
  r->digest = d.value();
}

// ------------------------------------------------------------ reporting ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double MedianOf(const std::vector<Round>& rounds,
                const std::function<double(const Round&)>& f) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    v.push_back(f(r));
  }
  return Median(v);
}

double PerOp(double v, uint64_t ops) {
  return ops == 0 ? 0 : v / static_cast<double>(ops);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#if defined(EASYIO_UCONTEXT)
constexpr bool kUcontext = true;
#else
constexpr bool kUcontext = false;
#endif

// The host and build the timings come from. Timings are only comparable
// between runs with identical fingerprints.
std::string Fingerprint() {
  utsname u{};
  uname(&u);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cpu\": \"%s\", \"nproc\": %u, \"kernel\": \"%s %s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
      "\"ucontext_fallback\": %s, \"stack_poison\": %s}",
      JsonEscape(ReadCpuModel()).c_str(),
      std::thread::hardware_concurrency(), JsonEscape(u.sysname).c_str(),
      JsonEscape(u.release).c_str(), HOSTBENCH_COMPILER,
      HOSTBENCH_BUILD_TYPE, kOptimized ? "true" : "false",
      kUcontext ? "true" : "false",
      easy::sim::StackAllocator::kPoisonDefault ? "true" : "false");
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void AddLayerMetrics(const std::vector<Round>& traced,
                     const LayerLoops& loops, const CrashPointProbe& probe,
                     double probe_pass_s, double trace_overhead,
                     double failed_frac, std::vector<Metric>* m) {
  const Round& r0 = traced.front();  // counts are identical in every round
  const Counts& c = r0.counts;
  const uint64_t ops = c.ops;
  auto med = [&](const std::function<double(const Round&)>& f) {
    return MedianOf(traced, f);
  };
  std::vector<double> jobs;
  for (const Round& r : traced) {
    jobs.insert(jobs.end(), r.job_s.begin(), r.job_s.end());
  }
  std::sort(jobs.begin(), jobs.end());
  const bool sweep = r0.crash_calls > 0;
  const double probe_s = probe.replay_s + probe.image_s + probe.load_s +
                         probe.mount_s + probe.check_s;

  auto add = [m](const char* name, double v, const char* unit) {
    m->push_back({name, v, unit});
  };
  // harness
  add("harness.testbed_s", med([](const Round& r) {
        return r.host.testbed_s;
      }), "s");
  add("harness.prefill_s", med([](const Round& r) {
        return r.host.prefill_s;
      }), "s");
  add("harness.testbeds", r0.host.testbeds, "count");
  add("harness.scenario_s.p50", Median(jobs), "s");
  add("harness.scenario_s.n", static_cast<double>(jobs.size()), "count");
  add("harness.scenario_s.max", jobs.empty() ? 0 : jobs.back(), "s");
  add("harness.parallel_eff", med([](const Round& r) {
        double sum = 0;
        for (double s : r.job_s) {
          sum += s;
        }
        return sum / (r.jobs * r.round_s);
      }), "ratio");
  // pmem
  add("pmem.setup_minflt", r0.host.setup_minflt, "count");
  add("pmem.run_minflt", r0.host.run_minflt, "count");
  add("pmem.barriers_per_op", PerOp(c.barriers, ops), "count/op");
  add("pmem.copy_ns", loops.copy_ns, "ns");
  // sim
  add("sim.switches_per_op", PerOp(c.switches, ops), "count/op");
  add("sim.tasks_spawned", c.tasks_spawned, "count");
  add("sim.yield_ns", loops.yield_ns, "ns");
  add("sim.event_ns", loops.event_ns, "ns");
  add("sim.flow_recompute_ns", loops.flow_recompute_ns, "ns");
  add("sim.flow_bytes_per_op", PerOp(c.flow_bytes, ops), "B/op");
  // dma
  add("dma.desc_per_op", PerOp(c.descriptors, ops), "count/op");
  add("dma.bytes_per_op", PerOp(c.dma_bytes, ops), "B/op");
  add("dma.submit_wait_ns", loops.submit_wait_ns, "ns");
  add("dma.retries", c.dma_retries, "count");
  add("dma.errors", c.dma_errors, "count");
  add("dma.sw_completions", c.dma_sw_completions, "count");
  add("dma.retry_ratio", PerOp(c.dma_retries, c.descriptors), "ratio");
  // nova
  add("nova.pagemap_ns", loops.pagemap_ns, "ns");
  add("nova.alloc_ns", loops.alloc_ns, "ns");
  add("nova.cpu_bytes_per_op", PerOp(c.nova_cpu_bytes, ops), "B/op");
  add("nova.dma_bytes_per_op", PerOp(c.nova_dma_bytes, ops), "B/op");
  add("nova.log_compactions", c.log_compactions, "count");
  // easyio
  add("easyio.quarantines", c.quarantines, "count");
  // crashmonkey: the sweep on crash_sweep, the one probed point elsewhere
  add("crash.points", sweep ? r0.crash_points : 1, "count");
  add("crash.points_per_s",
      sweep ? med([](const Round& r) { return r.crash_points / r.crash_s; })
            : 1 / probe_s,
      "1/s");
  add("crash.workload_s",
      sweep ? med([](const Round& r) { return r.crash_s / r.crash_calls; })
            : probe_pass_s,
      "s");
  add("crash.replay_s", probe.replay_s, "s");
  add("crash.image_s", probe.image_s, "s");
  add("crash.load_s", probe.load_s, "s");
  add("crash.mount_s", probe.mount_s, "s");
  add("crash.check_s", probe.check_s, "s");
  // fs (simulated time: the model guard)
  add("fs.virt_p50_ns", c.latency.P50(), "ns");
  add("fs.virt_p99_ns", c.latency.P99(), "ns");
  add("fs.virt_samples", c.latency.count(), "count");
  add("fs.virt_cpu_ns", PerOp(c.cpu_ns, ops), "ns");
  add("fs.virt_index_ns", PerOp(c.index_ns, ops), "ns");
  add("fs.virt_meta_ns", PerOp(c.meta_ns, ops), "ns");
  add("fs.virt_data_ns", PerOp(c.data_ns, ops), "ns");
  add("fs.virt_blocked_ns", PerOp(c.blocked_ns, ops), "ns");
  add("fs.sim_mops",
      c.virt_window_ns == 0
          ? 0
          : static_cast<double>(ops) * 1e3 / c.virt_window_ns,
      "Mop/s");
  // proc
  add("proc.user_s", med([](const Round& r) { return r.user_s; }), "s");
  add("proc.sys_s", med([](const Round& r) { return r.sys_s; }), "s");
  add("proc.allocs_per_op", PerOp(r0.host.window_allocs, ops), "count/op");
  // run
  add("failed_frac", failed_frac, "ratio");
  add("trace.overhead_frac", trace_overhead, "ratio");
  add("trace.spans", GlobalTracer().size(), "count");
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <fxmark_small|fxmark_large|"
               "figure_grid|crash_sweep> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out-dir <dir>]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = v == "1";
      if (v != "0" && v != "1") {
        return false;
      }
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  if (!kOptimized && !args.smoke) {
    std::fprintf(stderr,
                 "hostbench: refusing to report timings from an unoptimized "
                 "build (build type %s)\n", HOSTBENCH_BUILD_TYPE);
    return 3;
  }
  Sizes z;
  if (args.smoke) {
    z = Sizes{.window_scale = 0.02, .crash_points = 2, .crash_repeats = 1};
  }
  const uint64_t seed = args.seed;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int grid_workers = static_cast<int>(std::max(1u, hw / 2));

  // The Table 2 workloads: crash_sweep's inputs, and the traced runs'
  // crash point probe. Other untraced runs skip them, so their peak RSS
  // holds nothing they do not use.
  double crash_build_s = 0;
  std::vector<CrashWorkload> crash_workloads;
  if (args.workload == "crash_sweep" || args.trace) {
    Span span("crash.StandardWorkloads", &crash_build_s);
    crash_workloads = easy::crashmonkey::StandardWorkloads(seed);
  }

  std::function<void(Round*)> body;
  // figure_grid: a 1-worker pass whose digest every parallel round must
  // reproduce.
  std::optional<Round> serial;
  if (args.workload == "fxmark_small" || args.workload == "fxmark_large") {
    const std::vector<CaseSpec> cases = args.workload == "fxmark_small"
                                            ? FxmarkSmall(z)
                                            : FxmarkLarge(z);
    body = [cases, seed](Round* r) { RunCases(cases, seed, 1, r); };
  } else if (args.workload == "figure_grid") {
    const std::vector<CaseSpec> cells = FigureGrid(z);
    serial.emplace();
    RunCases(cells, seed, 1, &*serial);
    body = [cells, seed, grid_workers](Round* r) {
      RunCases(cells, seed, grid_workers, r);
    };
  } else if (args.workload == "crash_sweep") {
    body = [&crash_workloads, &crash_build_s, seed, z](Round* r) {
      CrashSweepRound(crash_workloads, seed, z, r);
      r->host.prefill_s = crash_build_s;
    };
  } else {
    return Usage();
  }

  // Rounds until --seconds have passed. With --trace 1, traced and
  // untraced rounds alternate so the tracing overhead is measured.
  std::vector<Round> rounds;
  // Peak RSS is read after the first round: one regeneration of the
  // workload, as a user runs it. Later rounds only repeat it for timing,
  // and glibc may keep a freed multi-MiB buffer (a crash image) resident
  // across them, so the process's final high-water varies run to run.
  double peak_rss_mb = 0;
  const int min_rounds = args.smoke ? (args.trace ? 2 : 1) : 3;
  const double t_begin = NowS();
  while (static_cast<int>(rounds.size()) < min_rounds ||
         NowS() - t_begin < args.seconds) {
    const bool traced = args.trace && rounds.size() % 2 == 1;
    rounds.push_back(TimedRound(traced, body));
    if (rounds.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
    const Round& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu%s: %.4f s, set-up %.4f s, %llu ops in %.4f s, "
                 "peak RSS %.1f MB\n",
                 rounds.size(), traced ? " (traced)" : "", r.round_s,
                 r.setup_s, static_cast<unsigned long long>(r.timed_ops),
                 r.timed_s, PeakRssMb());
    if (args.smoke && static_cast<int>(rounds.size()) >= min_rounds) {
      break;
    }
  }

  bool correct = true;
  uint64_t attempted = serial ? serial->attempted : 0;
  uint64_t failed = serial ? serial->failed : 0;
  const uint64_t want = serial ? serial->digest : rounds.front().digest;
  for (const Round& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.digest != want) {
      std::fprintf(stderr,
                   "hostbench: simulated digest changed between rounds "
                   "(%016llx vs %016llx)\n",
                   static_cast<unsigned long long>(r.digest),
                   static_cast<unsigned long long>(want));
      correct = false;
    }
  }
  correct = correct && failed == 0 && attempted > 0;

  // The simulated results of one round. The hash covers every counter in
  // Counts; the fields spell out the op and barrier counts and fs.* stats.
  const Counts& c = rounds.front().counts;
  std::printf("digest %s seed=%llu hash=%016llx ops=%llu barriers=%llu "
              "virt_samples=%llu virt_p50_ns=%llu virt_p99_ns=%llu "
              "virt_cpu_ns=%llu virt_index_ns=%llu virt_meta_ns=%llu "
              "virt_data_ns=%llu virt_blocked_ns=%llu virt_window_ns=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(rounds.front().digest),
              static_cast<unsigned long long>(c.ops),
              static_cast<unsigned long long>(c.barriers),
              static_cast<unsigned long long>(c.latency.count()),
              static_cast<unsigned long long>(c.latency.P50()),
              static_cast<unsigned long long>(c.latency.P99()),
              static_cast<unsigned long long>(c.cpu_ns),
              static_cast<unsigned long long>(c.index_ns),
              static_cast<unsigned long long>(c.meta_ns),
              static_cast<unsigned long long>(c.data_ns),
              static_cast<unsigned long long>(c.blocked_ns),
              static_cast<unsigned long long>(c.virt_window_ns));
  const std::string fingerprint = Fingerprint();
  std::printf("fingerprint %s\n", fingerprint.c_str());

  std::vector<Round> traced;
  std::vector<Round> untraced;
  for (const Round& r : rounds) {
    (r.traced ? traced : untraced).push_back(r);
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"fs_ops_per_s", MedianOf(rounds, [](const Round& r) {
                         return r.timed_ops / r.timed_s;
                       }), "1/s"});
    metrics.push_back({"regen_s", MedianOf(rounds, [](const Round& r) {
                         return r.round_s;
                       }), "s"});
    metrics.push_back({"setup_s", MedianOf(rounds, [](const Round& r) {
                         return r.setup_s;
                       }), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    // Layer probes: the isolated loops, and one crash point taken apart
    // step by step (the fault pass's workload, at its middle barrier).
    GlobalTracer().set_enabled(true);
    const LayerLoops loops =
        RunLayerLoops(args.smoke ? 0.01 : 0.5, args.smoke ? 1 : 3);
    const easy::dma::FaultPlan plan = CrashFaultPlan(seed);
    const CrashPassResult pass =
        RunCrashWorkload(crash_workloads[kFaultWorkload], &plan);
    const CrashPointProbe probe = ProbeCrashPoint(
        crash_workloads[kFaultWorkload], pass.counts.barriers / 2, &plan);
    GlobalTracer().set_enabled(false);
    attempted++;
    if (!probe.recovered) {
      std::fprintf(stderr, "hostbench: probed crash point not recovered\n");
      failed++;
      correct = false;
    }
    auto round_s = [](const Round& r) { return r.round_s; };
    const double overhead =
        MedianOf(traced, round_s) / MedianOf(untraced, round_s) - 1;
    std::printf("tracing overhead %s: %+.2f%% of the untraced round time\n",
                args.workload.c_str(), 100 * overhead);
    AddLayerMetrics(traced, loops, probe, pass.run_s, overhead,
                    PerOp(failed, attempted), &metrics);
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "hostbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }

  // Everything this run measured, with its fingerprint, for later
  // comparison (run.py --compare), plus the spans of a traced run.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace && !GlobalTracer().WriteChromeJson(stem + ".trace.json")) {
    std::fprintf(stderr, "hostbench: cannot write %s.trace.json\n",
                 stem.c_str());
  }
  const std::string result = std::string("{\"correct\": ") +
                             (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"fingerprint\": %s, \"rounds\": %zu, \"result\": %s}\n",
                 fingerprint.c_str(), rounds.size(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
