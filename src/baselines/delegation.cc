#include "src/baselines/delegation.h"

#include <algorithm>
#include <cassert>

namespace easyio::baselines {

namespace {

// Split granularity: OdinFS [OSDI'22] parallelizes a large I/O by fanning
// chunks of this size across the delegation threads (the §6.1 baseline).
constexpr uint64_t kChunkBytes = 32 * 1024;
// Request-posting cost on the application core (ring slot + fence).
constexpr uint64_t kRingPostNs = 700;

}  // namespace

DelegationPool::DelegationPool(sim::Simulation* sim, pmem::SlowMemory* mem,
                               const Options& options)
    : sim_(sim), mem_(mem), options_(options) {
  assert(options.num_threads >= 1);
  rings_.resize(static_cast<size_t>(options.num_threads));
  worker_parked_.assign(static_cast<size_t>(options.num_threads), false);
}

void DelegationPool::Start() {
  assert(!started_);
  started_ = true;
  workers_.resize(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_[static_cast<size_t>(i)] =
        sim_->Spawn(options_.first_core + i, [this, i] { WorkerLoop(i); });
  }
}

void DelegationPool::WorkerLoop(int idx) {
  auto& ring = rings_[static_cast<size_t>(idx)];
  while (true) {
    if (ring.empty()) {
      worker_parked_[static_cast<size_t>(idx)] = true;
      sim_->Block();
      continue;  // the waker cleared the parked flag
    }
    Request req = ring.front();
    ring.pop_front();
    if (req.to_pmem) {
      mem_->CpuWrite(req.pmem_off, req.dram, req.n);
    } else {
      mem_->CpuRead(req.dram, req.pmem_off, req.n);
    }
    requests_processed_++;
    req.completion->remaining--;
    if (req.completion->remaining == 0 && req.completion->waiting) {
      sim_->Wake(req.completion->waiter);
    }
  }
}

void DelegationPool::Move(bool to_pmem, uint64_t pmem_off, std::byte* dram,
                          size_t n) {
  assert(started_ && "Start() the pool before Move()");
  assert(sim_->in_task());
  const int chunks = static_cast<int>((n + kChunkBytes - 1) / kChunkBytes);
  Completion completion{chunks, sim_->current()};
  size_t posted = 0;
  while (posted < n) {
    const size_t chunk = std::min<uint64_t>(kChunkBytes, n - posted);
    const int ring = static_cast<int>(next_ring_++ %
                                      static_cast<uint64_t>(
                                          options_.num_threads));
    rings_[static_cast<size_t>(ring)].push_back(Request{
        to_pmem, pmem_off + posted, dram + posted, chunk, &completion});
    if (worker_parked_[static_cast<size_t>(ring)]) {
      // Clear before waking: the worker may not run (and reset the flag)
      // before another Move posts to this ring, and a second Wake on a
      // task that is already runnable is illegal.
      worker_parked_[static_cast<size_t>(ring)] = false;
      sim_->Wake(workers_[static_cast<size_t>(ring)]);
    }
    // Posting cost per request on the application core (ring + fence).
    // NOTE: this Advance yields to the event loop, so workers may already be
    // consuming requests while later chunks are still being posted.
    sim_->Advance(kRingPostNs);
    posted += chunk;
  }
  if (completion.remaining > 0) {
    // Check-then-park is atomic (no yield in between): the application
    // thread polls the completion word, so its core stays busy.
    completion.waiting = true;
    sim_->BlockHoldingCore();
  }
}

}  // namespace easyio::baselines
