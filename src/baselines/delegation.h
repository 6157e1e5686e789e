// Delegation pool for the OdinFS baseline [OSDI'22].
//
// OdinFS reserves cores per NUMA node to run background delegation threads;
// application threads post data-movement requests to per-thread rings, the
// delegation threads perform the PM accesses (splitting large I/Os for
// parallelism), and the application thread spins until its request group
// completes. The paper's configuration reserves 12 cores per node — which is
// why its workloads cap out at 12 worker cores on a 36-core machine (§6.1).

#ifndef EASYIO_BASELINES_DELEGATION_H_
#define EASYIO_BASELINES_DELEGATION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::baselines {

class DelegationPool {
 public:
  struct Options {
    int first_core = 0;   // first reserved core
    int num_threads = 4;  // delegation threads (one per reserved core)
  };

  DelegationPool(sim::Simulation* sim, pmem::SlowMemory* mem,
                 const Options& options);

  DelegationPool(const DelegationPool&) = delete;
  DelegationPool& operator=(const DelegationPool&) = delete;

  // Spawns the delegation tasks on their reserved cores. Call once, before
  // any Move().
  void Start();

  // Synchronously moves `n` bytes between DRAM and pmem by splitting into
  // chunks fanned across the delegation threads; the caller's core stays
  // busy (it polls the completion word) until all chunks land.
  void Move(bool to_pmem, uint64_t pmem_off, std::byte* dram, size_t n);

  int num_threads() const { return options_.num_threads; }
  uint64_t requests_processed() const { return requests_processed_; }

 private:
  struct Completion {
    int remaining;
    sim::Task* waiter;
    bool waiting = false;  // waiter has actually parked
  };
  struct Request {
    bool to_pmem;
    uint64_t pmem_off;
    std::byte* dram;
    size_t n;
    Completion* completion;
  };

  void WorkerLoop(int idx);

  sim::Simulation* sim_;
  pmem::SlowMemory* mem_;
  Options options_;
  std::vector<std::deque<Request>> rings_;
  std::vector<sim::Task*> workers_;
  std::vector<bool> worker_parked_;
  uint64_t next_ring_ = 0;
  uint64_t requests_processed_ = 0;
  bool started_ = false;
};

}  // namespace easyio::baselines

#endif  // EASYIO_BASELINES_DELEGATION_H_
