// RunIndexed: fans *independent* simulation scenarios across host threads.
//
// Every figure bench regenerates its panels by running dozens of
// deterministic Simulation instances that share nothing — fig09 alone sweeps
// 4 filesystems x 9 core counts x 2 I/O sizes x 2 workloads — so the wall
// time to reproduce the paper used to scale with the *sum* of scenario costs
// while almost every host core idled. Each caller knows its cell count
// before it starts, so one function does the fan-out, with no job queue:
// fn(i) builds, runs and tears down its own Simulation on one worker thread
// (the sim kernel is thread-compatible, see src/sim/simulation.h), and its
// result lands in slot i, so the printed tables are byte-identical
// regardless of thread count or completion order.
//
// Contract:
//   * Calls must be independent: no call may touch another's state, a
//     Simulation constructed outside itself, or mutate shared data without
//     its own synchronization.
//   * Calls may print to stderr (diagnostics, trace summaries) — that
//     interleaving is not deterministic. Deterministic stdout belongs to the
//     caller, printed from the ordered results.
//   * jobs <= 1 runs fn(0) .. fn(n-1) inline on the calling thread, in
//     order — exactly the historical serial path, with no threads created.
//   * Otherwise min(jobs, n) worker threads claim indices in ascending order
//     from one atomic counter, so the first indices start first (a caller
//     puts its longest cells there). The calling thread runs none of them:
//     a TraceSession is per thread, and a cell run on the caller would be
//     traced by the caller's session.
//   * Every index runs even if one throws; the exception of the lowest
//     throwing index is rethrown once all of them have finished (completion
//     order never leaks through).
//
// The worker count is the benches' --jobs flag (bench::ParseFlags).

#ifndef EASYIO_HARNESS_SCENARIO_RUNNER_H_
#define EASYIO_HARNESS_SCENARIO_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace easyio::harness {

// Runs fn(0) .. fn(n-1) across `jobs` threads and returns the results in
// index order. `fn` is invoked concurrently (when jobs > 1) and must not
// rely on call order.
template <typename Fn>
auto RunIndexed(int jobs, size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  using Result = std::invoke_result_t<Fn&, size_t>;
  // std::vector<bool> packs its elements into shared words: concurrent
  // writes to distinct slots would race.
  static_assert(!std::is_same_v<Result, bool>,
                "return a type other than bool from a RunIndexed job");
  std::vector<Result> out(n);
  std::vector<std::exception_ptr> errors(n);
  const auto run = [&](size_t i) {
    try {
      out[i] = fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (jobs <= 1) {
    for (size_t i = 0; i < n; ++i) {
      run(i);
    }
  } else {
    const size_t threads = std::min(static_cast<size_t>(jobs), n);
    std::atomic<size_t> next{0};
    // jthreads join when `workers` goes out of scope, also when starting
    // one throws: the started ones still run every index first.
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (size_t i = next++; i < n; i = next++) {
          run(i);
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }
  return out;
}

}  // namespace easyio::harness

#endif  // EASYIO_HARNESS_SCENARIO_RUNNER_H_
