// CrashMonkey-style black-box crash-consistency testing (paper §6.5,
// [OSDI'18]).
//
// A workload is a deterministic sequence of atomic filesystem operations
// plus a host-side *expected-state model* (a tiny in-memory filesystem with
// hard-link aliasing). The harness:
//
//   1. runs the workload once to count persist barriers (legal crash
//      points — every fence boundary, including DMA completion-record
//      updates) and samples the crash points;
//   2. runs the workload a second time, once, and stops the simulation at
//      each sampled barrier. The stopped run holds exactly the device
//      bytes, in-flight writes and completed ops a run stopped at that
//      barrier alone would: a stop only declines an Advance elision, which
//      moves nothing (Simulation::Resume). At each stop the crashed
//      device's mapping is lent to a fresh EasyIO instance with the
//      in-flight writes' durable prefixes laid over it
//      (SlowMemory::LendCrashImage), which mounts it and runs recovery;
//   3. checks that the recovered state equals the model state after the
//      last *completed* operation, or after the one possibly-in-flight
//      operation — anything else is an atomicity or durability bug. Both
//      states come from two running models (ModelCursor) that advance one
//      op at a time as the stops complete more of the workload. The check
//      done, the lent mapping is rolled back to the stopped run's bytes and
//      returned (SlowMemory::ReclaimCrashImage), and the run resumes. A
//      crash point thus costs a mount, the read-back and the undo of the
//      pages they wrote; the workload runs twice per sweep, not once per
//      point.
//
// The four workloads mirror the paper's Table 2: create_delete,
// generic_056 (create/write/link), generic_090 (write/append/link),
// generic_322 (create/write/rename).

#ifndef EASYIO_CRASHMONKEY_CRASH_TEST_H_
#define EASYIO_CRASHMONKEY_CRASH_TEST_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/dma/fault_plan.h"
#include "src/easyio/channel_manager.h"
#include "src/easyio/easy_io_fs.h"
#include "src/fs/file_system.h"
#include "src/nova/nova_fs.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::crashmonkey {

// Host-side expected state: path -> contents, with hard links sharing the
// underlying vector.
using FileContent = std::shared_ptr<std::vector<std::byte>>;
using ExpectedState = std::map<std::string, FileContent>;

struct CrashOp {
  std::string description;
  // Applies the operation to the filesystem under test (called in a task).
  std::function<void(fs::FileSystem&)> apply;
  // Applies the operation to the expected-state model.
  std::function<void(ExpectedState&)> model;
};

class WorkloadBuilder {
 public:
  WorkloadBuilder& Create(const std::string& path);
  WorkloadBuilder& Write(const std::string& path, uint64_t off,
                         std::vector<std::byte> data);
  WorkloadBuilder& Append(const std::string& path,
                          std::vector<std::byte> data);
  WorkloadBuilder& Unlink(const std::string& path);
  WorkloadBuilder& Link(const std::string& existing, const std::string& to);
  WorkloadBuilder& Rename(const std::string& from, const std::string& to);

  std::vector<CrashOp> Build() { return std::move(ops_); }

 private:
  std::vector<CrashOp> ops_;
};

struct CrashWorkload {
  std::string name;
  std::string description;
  std::vector<CrashOp> ops;
};

// The paper's Table 2 workload set.
std::vector<CrashWorkload> StandardWorkloads(uint64_t seed);

struct CrashTestResult {
  int total_points = 0;
  int passed = 0;
  std::vector<std::string> failures;  // first few diagnostics
};

// Default filesystem geometry used by the crash runs.
nova::NovaFs::Options DefaultCrashFsOptions();

// The machine every crash run executes on: a 2-core simulation and a 24 MiB
// two-node device with EasyIO formatted on it, 16 DMA channels and a
// ChannelManager. With a non-empty `faults` plan the engine gets a fresh
// FaultInjector built from it (the injector's consume-once state must not
// leak between runs).
struct CrashEnv {
  static constexpr size_t kDeviceBytes = 24_MB;

  sim::Simulation sim{{.num_cores = 2}};
  pmem::SlowMemory mem;
  // Declared before the engine: channels hold a raw pointer to it.
  std::unique_ptr<dma::FaultInjector> injector;
  std::unique_ptr<core::EasyIoFs> fs;
  std::unique_ptr<dma::DmaEngine> engine;
  std::unique_ptr<core::ChannelManager> cm;

  explicit CrashEnv(const nova::NovaFs::Options& fs_options,
                    const dma::FaultPlan* faults = nullptr);
};

// The crash points a sweep of at most `max_points` visits: persist barrier
// indices (1-based, counted from the end of CrashEnv set-up) spread evenly
// over one full run of the workload, the last one being its final barrier.
// Runs the workload once to count them.
std::vector<uint64_t> SampleCrashPoints(const CrashWorkload& workload,
                                        int max_points,
                                        const nova::NovaFs::Options& fs_options,
                                        const dma::FaultPlan* faults);

// Runs `workload` on a fresh `env` with crash tracking on and stops the
// simulation at each persist barrier in `points` (ascending, as
// SampleCrashPoints returns them; a run must reach the last one). At each
// stop it calls at_stop(completed, first, end): `completed` is the index of
// the last operation that completed (-1 if none), and points [first, end)
// are those the stopped run has passed that no earlier stop covered. More
// than one shares a stop when no switch-out separates them, and a run
// stopped at any of them alone would stop at this same slice. `env.mem`
// then holds the crashed device; it must be unchanged when at_stop returns
// (lend it with WithCrashImage or snapshot it with CrashImage()). The run
// resumes after each stop but the last, and stays stopped after that.
void RunWithCrashStops(
    CrashEnv& env, const CrashWorkload& workload,
    const std::vector<uint64_t>& points,
    const std::function<void(int completed, size_t first, size_t end)>&
        at_stop);

// RunWithCrashStops with the one point `k`: returns the index of the last
// operation that completed (-1 if none).
int RunToCrash(CrashEnv& env, const CrashWorkload& workload, uint64_t k);

// Calls use(recovery) on a fresh device of `crashed`'s size and media, on a
// 2-core simulation of its own, that holds `crashed`'s crash image in place
// (SlowMemory::LendCrashImage). Then rolls back whatever `use` wrote and
// returns the mapping to `crashed`. `crashed`'s simulation must be stopped,
// and `use` must leave no task of the recovery simulation unfinished.
void WithCrashImage(pmem::SlowMemory& crashed,
                    const std::function<void(pmem::SlowMemory&)>& use);

// The two expected states a crash point is checked against, kept as running
// models over one ascending sweep: before() is the state after op
// `completed`, after() the state after op `completed + 1` (capped at the
// last op). Each op's model runs once per model, and each model owns its
// contents, so hard links alias within it.
class ModelCursor {
 public:
  // Starts at completed = -1: before() is empty, after() holds op 0.
  // `workload` must outlive the cursor.
  explicit ModelCursor(const CrashWorkload& workload);

  // Advances both models to `completed`, the index of the last op a crash
  // run completed (-1 if none). A sweep's stops come in barrier order, so
  // `completed` never decreases across calls.
  void AdvanceTo(int completed);

  const ExpectedState& before() const { return before_; }
  const ExpectedState& after() const { return after_; }

 private:
  const CrashWorkload* workload_;
  ExpectedState before_;
  ExpectedState after_;
  int before_last_ = -1;  // last op applied to before_
  int after_last_ = -1;   // last op applied to after_
};

// Runs up to `max_points` crash points (evenly sampled over all persist
// barriers) for the workload on EasyIO: a counting run (SampleCrashPoints),
// then one run stopped at every point (RunWithCrashStops), each stop mounted
// and checked in place (WithCrashImage). Points that share a stop share its
// verdict.
//
// `faults` optionally injects DMA faults into both runs: each CrashEnv gets
// a fresh FaultInjector built from the same plan (the injector's
// consume-once state must not leak between runs), so the barrier-count pass
// and the stopped run see identical fault timing — retries and error-record
// updates add persist barriers, which then become sampled crash points like
// any other.
CrashTestResult RunCrashTest(const CrashWorkload& workload, int max_points,
                             const nova::NovaFs::Options& fs_options =
                                 DefaultCrashFsOptions(),
                             const dma::FaultPlan* faults = nullptr);

}  // namespace easyio::crashmonkey

#endif  // EASYIO_CRASHMONKEY_CRASH_TEST_H_
