#include "src/harness/scenario_runner.h"

#include <cstdlib>
#include <utility>

namespace easyio::harness {

int ScenarioRunner::DefaultJobs() {
  if (const char* env = std::getenv("EASYIO_JOBS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n >= 1) {
      return n;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ScenarioRunner::ScenarioRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {
  if (jobs_ == 1) {
    return;  // serial mode: no pool, Submit executes inline
  }
  workers_.reserve(static_cast<size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ScenarioRunner::~ScenarioRunner() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return completed_ == slots_.size(); });
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ScenarioRunner::RunSlot(Slot& slot) {
  try {
    slot.fn();
  } catch (...) {
    slot.error = std::current_exception();
  }
  slot.fn = nullptr;  // release captured state as soon as the job is done
}

size_t ScenarioRunner::Submit(std::function<void()> fn) {
  if (jobs_ == 1) {
    // No lock needed: serial mode never touches worker threads.
    const size_t index = slots_.size();
    slots_.emplace_back(Slot{std::move(fn), nullptr});
    RunSlot(slots_.back());
    completed_++;
    return index;
  }
  size_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = slots_.size();
    slots_.emplace_back(Slot{std::move(fn), nullptr});
  }
  work_cv_.notify_one();
  return index;
}

void ScenarioRunner::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return next_ < slots_.size() || shutdown_; });
    if (next_ >= slots_.size()) {
      return;  // shutdown with the queue drained
    }
    Slot& slot = slots_[next_++];  // deque: stable reference across growth
    lock.unlock();
    RunSlot(slot);
    lock.lock();
    completed_++;
    done_cv_.notify_all();
  }
}

void ScenarioRunner::Wait() {
  std::exception_ptr first;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return completed_ == slots_.size(); });
    // Consume *every* stored error (so a reused runner never resurfaces a
    // stale one) but surface only the first in submission order.
    for (Slot& slot : slots_) {
      if (slot.error != nullptr) {
        std::exception_ptr e = std::exchange(slot.error, nullptr);
        if (first == nullptr) {
          first = std::move(e);
        }
      }
    }
  }
  if (first != nullptr) {
    std::rethrow_exception(first);
  }
}

}  // namespace easyio::harness
