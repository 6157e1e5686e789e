#include "src/uthread/scheduler.h"

#include <cassert>

#include "src/obs/trace.h"

namespace easyio::uthread {

Scheduler::Scheduler(sim::Simulation* sim, const Options& options)
    : sim_(sim), options_(options) {
  assert(options.first_core >= 0 && options.num_cores >= 1);
  assert(options.first_core + options.num_cores <= sim->num_cores());
  if (options_.work_stealing && options_.num_cores > 1) {
    for (int c = options_.first_core;
         c < options_.first_core + options_.num_cores; ++c) {
      sim_->SetStealHook(c, [this](int thief) -> sim::Task* {
        // Steal from the most loaded sibling within this runtime only.
        int best = -1;
        size_t best_depth = 0;
        for (int v = options_.first_core;
             v < options_.first_core + options_.num_cores; ++v) {
          if (v == thief) {
            continue;
          }
          const size_t depth = sim_->run_queue_depth(v);
          if (depth > best_depth) {
            best_depth = depth;
            best = v;
          }
        }
        if (best < 0) {
          return nullptr;
        }
        sim::Task* stolen = sim_->TryStealFrom(best);
        if (stolen != nullptr) {
          OBS_EVENT_SAMPLED(
              obs::Track(obs::kProcCores, static_cast<uint32_t>(thief)),
              "steal", {"victim", static_cast<uint64_t>(best)},
              {"task", stolen->id()});
        }
        return stolen;
      });
      // When work queues up behind a busy core, prod the idle siblings so
      // they come steal it.
      sim_->SetEnqueueHook(c, [this](int overloaded) {
        for (int v = options_.first_core;
             v < options_.first_core + options_.num_cores; ++v) {
          if (v != overloaded && !sim_->core_busy(v) &&
              sim_->run_queue_depth(v) == 0) {
            sim_->Kick(v);
          }
        }
      });
    }
  }
}

int Scheduler::PickCore() const {
  int best = options_.first_core +
             static_cast<int>(round_robin_++ % options_.num_cores);
  size_t best_load = SIZE_MAX;
  for (int c = options_.first_core;
       c < options_.first_core + options_.num_cores; ++c) {
    const size_t load =
        sim_->run_queue_depth(c) + (sim_->core_busy(c) ? 1 : 0);
    if (load < best_load) {
      best_load = load;
      best = c;
    }
  }
  return best;
}

sim::Task* Scheduler::Spawn(std::function<void()> fn) {
  return sim_->Spawn(PickCore(), std::move(fn));
}

sim::Task* Scheduler::SpawnOn(int core, std::function<void()> fn) {
  assert(core >= options_.first_core &&
         core < options_.first_core + options_.num_cores);
  return sim_->Spawn(core, std::move(fn));
}

sim::Task* Scheduler::SpawnDetached(std::function<void()> fn) {
  return sim_->SpawnDetached(PickCore(), std::move(fn));
}

void Scheduler::RunWorkers(int n, const std::function<void(int)>& fn) {
  std::vector<sim::Task*> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers.push_back(Spawn([fn, i] { fn(i); }));
  }
  for (sim::Task* w : workers) {
    sim_->Join(w);
  }
}

void Scheduler::Yield() {
  sim_->Advance(options_.switch_cost_ns);
  sim_->Yield();
}

// ----------------------------------------------------------------- Mutex ----

void Mutex::Lock() {
  sim::Task* self = sim_->current();
  assert(self != nullptr);
  if (owner_ == nullptr) {
    owner_ = self;
    return;
  }
  assert(owner_ != self && "recursive lock");
  waiters_.push_back(self);
  sim_->Block();
  assert(owner_ == self);  // handed off by Unlock
}

void Mutex::Unlock() {
  assert(owner_ == sim_->current());
  if (waiters_.empty()) {
    owner_ = nullptr;
    return;
  }
  owner_ = waiters_.front();
  waiters_.pop_front();
  sim_->Wake(owner_);
}

// ---------------------------------------------------------------- RwLock ----

void RwLock::ReadLock() {
  sim::Task* self = sim_->current();
  // Writer preference: queue behind any waiting writer to avoid starvation.
  if (writer_ != nullptr || !waiters_.empty()) {
    waiters_.push_back({self, /*is_writer=*/false});
    sim_->Block();
    return;  // WakeNext granted us the read lock
  }
  readers_++;
}

void RwLock::ReadUnlock() {
  assert(readers_ > 0);
  readers_--;
  if (readers_ == 0) {
    WakeNext();
  }
}

void RwLock::WriteLock() {
  sim::Task* self = sim_->current();
  if (writer_ != nullptr || readers_ > 0 || !waiters_.empty()) {
    waiters_.push_back({self, /*is_writer=*/true});
    sim_->Block();
    assert(writer_ == self);
    return;
  }
  writer_ = self;
}

void RwLock::WriteUnlock() {
  assert(writer_ == sim_->current());
  writer_ = nullptr;
  WakeNext();
}

void RwLock::WakeNext() {
  if (writer_ != nullptr || readers_ > 0 || waiters_.empty()) {
    return;
  }
  if (waiters_.front().is_writer) {
    writer_ = waiters_.front().task;
    waiters_.pop_front();
    sim_->Wake(writer_);
    return;
  }
  // Admit the whole leading run of readers.
  while (!waiters_.empty() && !waiters_.front().is_writer) {
    readers_++;
    sim::Task* t = waiters_.front().task;
    waiters_.pop_front();
    sim_->Wake(t);
  }
}

}  // namespace easyio::uthread
