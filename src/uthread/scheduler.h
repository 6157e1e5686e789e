// Caladan-lite userspace scheduling runtime (paper §2.3, §5).
//
// A Scheduler owns a contiguous set of simulated cores and multiplexes
// uthreads (sim::Tasks) on them:
//   * spawn/join with round-robin placement,
//   * cooperative yield — in EasyIO the runtime yields every time a syscall
//     returns after issuing an asynchronous I/O, which is what interleaves
//     application work with in-flight DMA,
//   * work stealing — an idle core steals the newest runnable uthread from
//     the most loaded sibling core, so uthreads whose I/O completed while
//     their home core was stuck in a long task still get to run (§5),
//   * context-switch cost charged in virtual time per switch.
//
// Scheduler instances over disjoint core ranges can model colocated
// applications (uthread_test covers two side by side). The benches build at
// most one: Fig 12's web server runs on a 4-core Scheduler, and its
// colocated GC is a plain task on a core outside that range.

#ifndef EASYIO_UTHREAD_SCHEDULER_H_
#define EASYIO_UTHREAD_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/simulation.h"

namespace easyio::uthread {

class Scheduler {
 public:
  struct Options {
    int first_core = 0;
    int num_cores = 1;
    bool work_stealing = true;
    uint64_t switch_cost_ns = 120;  // userspace context switch (§2.3)
  };

  Scheduler(sim::Simulation* sim, const Options& options);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int first_core() const { return options_.first_core; }
  int num_cores() const { return options_.num_cores; }
  sim::Simulation* simulation() const { return sim_; }

  // Spawns a uthread on the least-loaded owned core (ties: round-robin).
  sim::Task* Spawn(std::function<void()> fn);
  sim::Task* SpawnOn(int core, std::function<void()> fn);
  // Detached: freed on completion, not joinable (per-request uthreads).
  sim::Task* SpawnDetached(std::function<void()> fn);

  void Join(sim::Task* t) { sim_->Join(t); }
  // Spawns `n` workers running fn(worker_index) and joins them all.
  void RunWorkers(int n, const std::function<void(int)>& fn);

  // Cooperative yield, charging the context-switch cost. EasyIO's runtime
  // calls this on return from every asynchronous syscall ("we perform the
  // thread_yield() every time when returning from the kernel", §5).
  void Yield();

  uint64_t switch_cost_ns() const { return options_.switch_cost_ns; }

 private:
  int PickCore() const;

  sim::Simulation* sim_;
  Options options_;
  mutable uint64_t round_robin_ = 0;
};

// A uthread-blocking mutex: contended lockers park and the unlock hands the
// lock to the oldest waiter (FIFO), all in virtual time on the owning core's
// scheduler.
class Mutex {
 public:
  explicit Mutex(sim::Simulation* sim) : sim_(sim) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock();
  void Unlock();
  bool locked() const { return owner_ != nullptr; }
  sim::Task* owner() const { return owner_; }

 private:
  sim::Simulation* sim_;
  sim::Task* owner_ = nullptr;
  std::deque<sim::Task*> waiters_;
};

// RAII lock guard for Mutex.
class MutexLock {
 public:
  explicit MutexLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Readers-writer lock with writer preference (matches NOVA's per-inode
// rwlock). Writers are exclusive; readers share.
class RwLock {
 public:
  explicit RwLock(sim::Simulation* sim) : sim_(sim) {}
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void ReadLock();
  void ReadUnlock();
  void WriteLock();
  void WriteUnlock();
  bool write_locked() const { return writer_ != nullptr; }
  int readers() const { return readers_; }

 private:
  struct Waiter {
    sim::Task* task;
    bool is_writer;
  };
  void WakeNext();

  sim::Simulation* sim_;
  sim::Task* writer_ = nullptr;
  int readers_ = 0;
  std::deque<Waiter> waiters_;
};

}  // namespace easyio::uthread

#endif  // EASYIO_UTHREAD_SCHEDULER_H_
