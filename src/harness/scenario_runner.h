// ScenarioRunner: a bounded worker pool for *independent* simulation
// scenarios.
//
// Every figure bench regenerates its panels by running dozens of
// deterministic Simulation instances that share nothing — fig09 alone sweeps
// 4 filesystems x 9 core counts x 2 I/O sizes x 2 workloads — so the wall
// time to reproduce the paper used to scale with the *sum* of scenario costs
// while almost every host core idled. The runner fans those scenarios across
// host threads the same way the surveyed PM filesystems exploit device
// parallelism: each job builds, runs and tears down its own Simulation on
// one worker thread (the sim kernel is thread-compatible, see
// src/sim/simulation.h), and its results land in a submission-ordered slot
// chosen by the caller, so the printed tables are byte-identical regardless
// of thread count or completion order.
//
// Contract:
//   * Jobs must be independent: no job may touch another job's state, a
//     Simulation constructed outside itself, or mutate shared data without
//     its own synchronization. Writing to a caller-provided per-job slot
//     (distinct element of a pre-sized vector) is the intended pattern.
//   * Jobs may print to stderr (diagnostics, trace summaries) — that
//     interleaving is not deterministic. Deterministic stdout belongs to the
//     caller, printed from the ordered results after Wait().
//   * jobs == 1 executes every job inline on the submitting thread, in
//     submission order — exactly the historical serial path, with no worker
//     threads created at all.
//   * All submitted jobs run even if an earlier one throws; Wait() then
//     rethrows the first exception in *submission* order (completion order
//     never leaks through). The pool never deadlocks on a throwing job.
//
// Worker count resolution: an explicit --jobs=N flag beats the EASYIO_JOBS
// environment variable, which beats std::thread::hardware_concurrency().

#ifndef EASYIO_HARNESS_SCENARIO_RUNNER_H_
#define EASYIO_HARNESS_SCENARIO_RUNNER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace easyio::harness {

class ScenarioRunner {
 public:
  // EASYIO_JOBS env var if set and >= 1, else hardware_concurrency (>= 1).
  static int DefaultJobs();

  explicit ScenarioRunner(int jobs = DefaultJobs());
  // Drains outstanding jobs and joins the workers. Errors are swallowed
  // here (destructors must not throw) — call Wait() to observe them.
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  int jobs() const { return jobs_; }

  // Enqueues a job and returns its submission index. With jobs() == 1 the
  // job runs inline before Submit returns (exceptions are still deferred to
  // Wait(), so serial and parallel failure semantics match).
  size_t Submit(std::function<void()> fn);

  // Blocks until every submitted job has finished, then rethrows the first
  // exception in submission order, if any. The runner is reusable after a
  // Wait() that returns normally or throws.
  void Wait();

 private:
  struct Slot {
    std::function<void()> fn;
    std::exception_ptr error;
  };

  void WorkerLoop();
  void RunSlot(Slot& slot);

  const int jobs_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new job or shutdown
  std::condition_variable done_cv_;   // Wait(): a job completed
  // deque: Submit grows it while workers hold references to their slot.
  std::deque<Slot> slots_;
  size_t next_ = 0;       // first slot not yet claimed by a worker
  size_t completed_ = 0;  // slots fully executed
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// Convenience for the dominant bench shape: run fn(0) .. fn(n-1) across
// `jobs` workers and return the results in index order. `fn` is invoked
// concurrently (when jobs > 1) and must not rely on call order; each
// invocation writes only its own result slot.
template <typename Fn>
auto RunIndexed(int jobs, size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  std::vector<std::invoke_result_t<Fn&, size_t>> out(n);
  ScenarioRunner runner(jobs);
  for (size_t i = 0; i < n; ++i) {
    runner.Submit([&out, &fn, i] { out[i] = fn(i); });
  }
  runner.Wait();
  return out;
}

}  // namespace easyio::harness

#endif  // EASYIO_HARNESS_SCENARIO_RUNNER_H_
