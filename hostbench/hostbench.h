// Host-cost benchmark for the EasyIO simulator: shared declarations.
//
// The benchmark measures what regenerating the simulator's results costs on
// the host. It drives the simulator only through its public API
// (harness::Testbed, fs::FileSystem, uthread::Scheduler,
// sim::Simulation::RunUntil, harness::RunIndexed, crashmonkey::RunCrashTest)
// and times each call into a layer from outside. See README.md in this
// directory for the workloads and metrics.

#ifndef HOSTBENCH_HOSTBENCH_H_
#define HOSTBENCH_HOSTBENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/crashmonkey/crash_test.h"
#include "src/dma/fault_plan.h"
#include "src/harness/testbed.h"

namespace hostbench {

using easyio::harness::FsKind;

// ------------------------------------------------------------- timing ----

double NowS();  // steady clock, seconds

double Median(std::vector<double> v);  // 0 for an empty vector

// Minor page faults of the calling thread so far.
long ThreadMinorFaults();

// Heap allocations made by the calling thread so far (counted by the
// benchmark binary's operator new).
uint64_t ThreadAllocs();

// ------------------------------------------------------------ tracing ----

// One span: a call from the benchmark into a layer. Spans of one scenario
// (one testbed or crash sweep) share `scenario`.
struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t scenario;
  double start_s;
  double end_s;
  uint64_t thread;
};

// Keeps spans in memory; WriteChromeJson writes them once, at exit, in the
// Chrome trace-event format (loadable in Perfetto).
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void Record(const SpanRecord& span);
  size_t size() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& GlobalTracer();

// Times one call into a layer. The host seconds always land in *out_s (if
// given), so untraced runs measure the same boundaries; a span with its
// parent and scenario is recorded only while tracing is enabled.
class Span {
 public:
  explicit Span(const char* name, double* out_s = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double* out_s_;
  double start_s_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

// Gives the spans opened on this thread during its lifetime a fresh
// scenario id.
class ScenarioScope {
 public:
  ScenarioScope();
  ~ScenarioScope();
  ScenarioScope(const ScenarioScope&) = delete;
  ScenarioScope& operator=(const ScenarioScope&) = delete;

 private:
  uint64_t saved_;
};

// ------------------------------------------------------------- digest ----

// FNV-1a over 64-bit words: a fingerprint of simulated results that must
// not change between runs of one seed, or across worker counts.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(const easyio::Histogram& h);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ----------------------------------------------- closed-loop fs load ----

enum class Op { kDWAL, kDRBL, kDWOM };

// One fxmark-shaped case: `cores` simulated cores run closed-loop workers
// (2 uthreads per core on EasyIO, 1 pinned worker per core otherwise), each
// issuing its next op when the previous one returns.
struct CaseSpec {
  FsKind fs = FsKind::kEasy;
  Op op = Op::kDWAL;
  int cores = 4;
  uint64_t io_size = 4096;
  uint64_t file_bytes = 4ull << 20;
  int machine_cores = 8;
  size_t device_bytes = 512ull << 20;
  uint64_t warmup_ns = 0;  // virtual
  uint64_t window_ns = 0;  // virtual, the timed window
  std::string Label() const;
};

// Work counts read from public accessors. All deterministic for a seed.
struct Counts {
  uint64_t ops = 0;  // FS ops completed inside the timed window
  uint64_t virt_window_ns = 0;
  uint64_t switches = 0;
  uint64_t tasks_spawned = 0;
  uint64_t barriers = 0;
  uint64_t descriptors = 0;
  uint64_t dma_bytes = 0;       // bytes completed by DMA channels
  uint64_t flow_bytes = 0;      // read + write FlowResource bytes
  uint64_t nova_cpu_bytes = 0;  // NOVA counters: data moved by CPU copy
  uint64_t nova_dma_bytes = 0;  // NOVA counters: data moved by DMA
  uint64_t log_compactions = 0;
  uint64_t dma_retries = 0;
  uint64_t dma_errors = 0;
  uint64_t dma_sw_completions = 0;
  uint64_t quarantines = 0;
  // Per-op simulated time, from fs::OpStats of ops in the timed window.
  easyio::Histogram latency;
  uint64_t cpu_ns = 0;
  uint64_t index_ns = 0;
  uint64_t meta_ns = 0;
  uint64_t data_ns = 0;
  uint64_t blocked_ns = 0;

  void Add(const Counts& o);
  void AddTo(Digest* d) const;
};

// Host-side cost of one scenario, by layer boundary.
struct HostCost {
  double testbed_s = 0;  // Testbed constructor (incl. Format)
  double prefill_s = 0;
  double window_s = 0;  // timed RunUntil
  double job_s = 0;     // the whole scenario job
  long setup_minflt = 0;
  long run_minflt = 0;
  uint64_t window_allocs = 0;
  int testbeds = 0;

  double setup_s() const { return testbed_s + prefill_s; }
  void Add(const HostCost& o);
};

struct CaseResult {
  Counts counts;
  HostCost host;
  uint64_t attempted = 0;  // FS calls and checks made
  uint64_t failed = 0;     // non-OK calls, mismatches, thrown jobs
};

// Builds a Testbed, prefills the files, warms up, runs the timed window,
// then reads everything back against the host-side shadow. Never throws;
// an exception counts as one failure.
CaseResult RunCase(const CaseSpec& spec, uint64_t seed);

// ---------------------------------------------------- crash workloads ----

// The crash environment of crashmonkey::RunCrashTest, rebuilt from public
// types so its set-up and the steps of one crash point can be timed.
struct CrashPassResult {
  Counts counts;  // ops = FS calls applied
  double setup_s = 0;
  double run_s = 0;
  long setup_minflt = 0;
  long run_minflt = 0;
  uint64_t run_allocs = 0;
};

// Applies the whole workload once on a fresh crash environment (the
// barrier-counting pass of RunCrashTest).
CrashPassResult RunCrashWorkload(const easyio::crashmonkey::CrashWorkload& w,
                                 const easyio::dma::FaultPlan* faults);

struct CrashPointProbe {
  bool recovered = false;
  double replay_s = 0;  // re-run from the start to barrier k
  double image_s = 0;   // CrashImage
  double load_s = 0;    // fresh device + LoadImage
  double mount_s = 0;   // Mount (recovery)
  double check_s = 0;   // recovered state vs. the model
};

// Runs the crash point at the workload's k-th persist barrier, step by
// step.
CrashPointProbe ProbeCrashPoint(const easyio::crashmonkey::CrashWorkload& w,
                                uint64_t k,
                                const easyio::dma::FaultPlan* faults);

// The DMA fault plan of the crash sweep's fault pass, seeded.
easyio::dma::FaultPlan CrashFaultPlan(uint64_t seed);

// ------------------------------------------------ isolated layer loops ----

struct LayerLoops {
  double yield_ns = 0;          // sim: one Advance+Yield dispatch cycle
  double event_ns = 0;          // sim: schedule + fire/cancel one event
  double flow_recompute_ns = 0; // sim: FlowResource start/cancel
  double submit_wait_ns = 0;    // dma: Channel::Submit + WaitSn
  double copy_ns = 0;           // pmem: CpuWrite/CpuRead
  double pagemap_ns = 0;        // nova: PageMap insert + lookup
  double alloc_ns = 0;          // nova: BlockAllocator alloc/free
};

// Each loop runs `scale` x its base iteration count, `repeats` times; the
// median ns per call is reported.
LayerLoops RunLayerLoops(double scale, int repeats);

}  // namespace hostbench

#endif  // HOSTBENCH_HOSTBENCH_H_
