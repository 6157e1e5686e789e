#include "src/pmem/slow_memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/units.h"

namespace easyio::pmem {

namespace {

// Released device mappings, each all-zero, waiting for a device of the same
// size. Leaked so that devices destroyed during static destruction can still
// park theirs. The mutex is the only lock on the process's one shared
// mutable state; a mapping has one owner at a time.
class MappingPool {
 public:
  static MappingPool& Get() {
    static MappingPool* const pool = new MappingPool;
    return *pool;
  }

  // The parked mapping of exactly `size` bytes that kept the most pages
  // mapped, or nullptr. Preferring the warmest matters when devices are
  // released in pairs: a crash point's recovery device holds the dirtied
  // mapping and the replay device an untouched one, and the next replay
  // should get the one whose pages are already there.
  std::byte* Take(size_t size) {
    std::lock_guard<std::mutex> lock(mu_);
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->size == size && (best == free_.end() || it->kept > best->kept)) {
        best = it;
      }
    }
    if (best == free_.end()) {
      return nullptr;
    }
    std::byte* data = best->data;
    *best = free_.back();
    free_.pop_back();
    return data;
  }

  void Park(std::byte* data, size_t size, size_t kept) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back({data, size, kept});
  }

 private:
  struct Parked {
    std::byte* data;
    size_t size;
    size_t kept;  // pages left mapped by the scrub
  };
  std::mutex mu_;
  std::vector<Parked> free_;
};

bool AllZero(const std::byte* p, size_t n) {
  return p[0] == std::byte{0} && std::memcmp(p, p + 1, n - 1) == 0;
}

// Makes a mapping read as all-zero again. A resident page that holds data is
// memset in place, so the next owner finds it mapped instead of paying a
// fresh fault plus its share of an munmap (per 4 KiB page on a 4-vCPU x86-64
// VM: memset ~0.4 us, fault ~2.2 us, munmap ~0.2 us). Every other page is
// discarded: resident zero pages were only read, and a non-resident page may
// be swapped out with stale bytes, so mincore's answer alone does not prove
// it zero. Returns the number of pages kept.
size_t Scrub(std::byte* data, size_t size) {
  static const size_t kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident((size + kPage - 1) / kPage);
  if (mincore(data, size, resident.data()) != 0) {
    std::fill(resident.begin(), resident.end(), 0);
  }
  size_t kept = 0;
  size_t discard_from = 0;  // start of the pending run of pages to discard
  auto discard_until = [&](size_t end) {
    if (end > discard_from &&
        madvise(data + discard_from, end - discard_from, MADV_DONTNEED) != 0) {
      std::perror("easyio: madvise of device backing store failed");
      std::abort();
    }
  };
  for (size_t i = 0; i < resident.size(); ++i) {
    const size_t off = i * kPage;
    const size_t n = std::min(kPage, size - off);
    if ((resident[i] & 1) != 0 && !AllZero(data + off, n)) {
      discard_until(off);
      std::memset(data + off, 0, n);
      discard_from = off + n;
      kept++;
    }
  }
  discard_until(size);
  return kept;
}

}  // namespace

ZeroMappedBytes::ZeroMappedBytes(size_t size) : size_(size) {
  if (size == 0) {
    return;
  }
  data_ = MappingPool::Get().Take(size);
  if (data_ != nullptr) {
    return;
  }
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("easyio: mmap of device backing store failed");
    std::abort();
  }
  data_ = static_cast<std::byte*>(p);
}

ZeroMappedBytes::~ZeroMappedBytes() {
  if (data_ != nullptr) {
    const size_t kept = Scrub(data_, size_);
    MappingPool::Get().Park(data_, size_, kept);
  }
}

SlowMemory::SlowMemory(sim::Simulation* sim, const MediaParams& params,
                       size_t size)
    : sim_(sim), params_(params), data_(size) {
  // Cross-direction interference (Fig 4): each direction's capacities are
  // derated by the other direction's current utilization.
  sim::CapacityModel read_model;
  read_model.cpu_aggregate = [this](int n) {
    return params_.CpuReadAggregate(n) * ReadDerate();
  };
  read_model.dma_aggregate = [this](int n) {
    return params_.DmaReadAggregate(n) * ReadDerate();
  };
  read_model.total = params_.read_total_gbps;
  read_flows_ = std::make_unique<sim::FlowResource>(sim, "pmem-read",
                                                    std::move(read_model));

  sim::CapacityModel write_model;
  write_model.cpu_aggregate = [this](int n) {
    return params_.CpuWriteAggregate(n) * WriteDerate();
  };
  write_model.dma_aggregate = [this](int n) {
    return params_.DmaWriteAggregate(n) * WriteDerate();
  };
  write_model.total = params_.write_total_gbps;
  write_flows_ = std::make_unique<sim::FlowResource>(sim, "pmem-write",
                                                     std::move(write_model));

  // When one direction's aggregate rate moves materially, re-derive the
  // other's rates (damped + coalesced to avoid ping-pong).
  write_flows_->set_rates_changed_hook([this] { CrossPoke(read_flows_.get(),
                                                          &read_poke_util_,
                                                          write_flows_.get(),
                                                          params_.write_total_gbps); });
  read_flows_->set_rates_changed_hook([this] { CrossPoke(write_flows_.get(),
                                                         &write_poke_util_,
                                                         read_flows_.get(),
                                                         params_.read_total_gbps); });
}

double SlowMemory::ReadDerate() const {
  const double write_util =
      write_flows_ == nullptr
          ? 0.0
          : write_flows_->total_rate_bps() /
                (params_.write_total_gbps * kGiB);
  return 1.0 - params_.read_loss_at_full_write *
                   std::min(1.0, std::max(0.0, write_util));
}

double SlowMemory::WriteDerate() const {
  const double read_util =
      read_flows_ == nullptr
          ? 0.0
          : read_flows_->total_rate_bps() / (params_.read_total_gbps * kGiB);
  return 1.0 - params_.write_loss_at_full_read *
                   std::min(1.0, std::max(0.0, read_util));
}

void SlowMemory::CrossPoke(sim::FlowResource* target, double* last_util,
                           sim::FlowResource* source, double source_total) {
  const double util = source->total_rate_bps() / (source_total * kGiB);
  if (std::abs(util - *last_util) < 0.02 || poke_pending_) {
    return;
  }
  *last_util = util;
  poke_pending_ = true;
  sim_->ScheduleAt(sim_->now(), [this, target] {
    poke_pending_ = false;
    target->Poke();
  });
}

void SlowMemory::CpuWrite(uint64_t dst_off, const void* src, size_t n) {
  assert(dst_off + n <= data_.size());
  assert(sim_->in_task());
  const uint64_t token = RegisterInflightWrite(dst_off, n);  // undo snapshot
  std::memcpy(data_.data() + dst_off, src, n);  // eager; durable at completion
  sim::Task* task = sim_->current();
  const auto flow = write_flows_->StartFlow(
      n, params_.cpu_write_cap.Lookup(n), sim::FlowType::kCpu,
      [this, token, task] {
        CompleteInflightWrite(token);
        sim_->Wake(task);
      });
  SetInflightFlow(token, write_flows_.get(), flow);
  sim_->BlockHoldingCore();
  PersistBarrier();
}

void SlowMemory::CpuRead(void* dst, uint64_t src_off, size_t n) {
  assert(src_off + n <= data_.size());
  assert(sim_->in_task());
  std::memcpy(dst, data_.data() + src_off, n);
  sim::Task* task = sim_->current();
  read_flows_->StartFlow(n, params_.cpu_read_cap.Lookup(n),
                         sim::FlowType::kCpu, [this, task] {
                           sim_->Wake(task);
                         });
  sim_->BlockHoldingCore();
}

uint64_t SlowMemory::MetaCostNs(size_t n) const {
  const uint64_t cachelines = (n + 63) / 64;
  return params_.meta_write_base_ns + cachelines * params_.meta_write_per_cl_ns;
}

void SlowMemory::MetaWrite(uint64_t dst_off, const void* src, size_t n) {
  assert(dst_off + n <= data_.size());
  std::memcpy(data_.data() + dst_off, src, n);
  if (sim_->in_task()) {
    sim_->Advance(MetaCostNs(n));
  }
  PersistBarrier();
}

void SlowMemory::MetaPersist(uint64_t dst_off, size_t n) {
  assert(dst_off + n <= data_.size());
  if (sim_->in_task()) {
    sim_->Advance(MetaCostNs(n));
  }
  PersistBarrier();
}

void SlowMemory::PersistBarrier() {
  barriers_++;
  if (barrier_hook_) {
    barrier_hook_(barriers_);
  }
}

uint64_t SlowMemory::RegisterInflightWrite(uint64_t dst_off, size_t n) {
  if (!crash_tracking_) {
    return 0;
  }
  Inflight entry;
  entry.dst_off = dst_off;
  entry.n = n;
  // Callers must register *before* performing the eager memcpy so the undo
  // snapshot preserves the pre-write contents.
  entry.undo.resize(n);
  std::memcpy(entry.undo.data(), data_.data() + dst_off, n);
  const uint64_t token = next_token_++;
  inflight_.emplace(token, std::move(entry));
  return token;
}

void SlowMemory::SetInflightFlow(uint64_t token, sim::FlowResource* res,
                                 sim::FlowResource::FlowId flow) {
  if (token == 0) {
    return;
  }
  auto it = inflight_.find(token);
  assert(it != inflight_.end());
  it->second.res = res;
  it->second.flow = flow;
}

void SlowMemory::CompleteInflightWrite(uint64_t token) {
  if (token == 0) {
    return;
  }
  inflight_.erase(token);
}

void SlowMemory::RollBackInflight(std::byte* image) const {
  for (const auto& [token, entry] : inflight_) {
    double progress = 0.0;
    if (entry.res != nullptr) {
      progress = entry.res->Progress(entry.flow);
    }
    // Durable prefix in whole cachelines; the rest rolls back.
    const size_t durable =
        (static_cast<size_t>(progress * static_cast<double>(entry.n)) / 64) *
        64;
    if (durable < entry.n) {
      std::memcpy(image + entry.dst_off + durable,
                  entry.undo.data() + durable, entry.n - durable);
    }
  }
}

std::vector<std::byte> SlowMemory::CrashImage() const {
  std::vector<std::byte> image(data_.data(), data_.data() + data_.size());
  RollBackInflight(image.data());
  return image;
}

void SlowMemory::LoadImage(const std::vector<std::byte>& image) {
  assert(image.size() == data_.size());
  std::memcpy(data_.data(), image.data(), image.size());
}

void SlowMemory::AdoptCrashImage(SlowMemory& crashed) {
  assert(&crashed != this);
  assert(crashed.data_.size() == data_.size());
  assert(inflight_.empty());
  crashed.RollBackInflight(crashed.data_.data());
  // The undo bytes describe the mapping that is about to leave; late
  // completions of the dead flows just find no entry to erase.
  crashed.inflight_.clear();
  data_.swap(crashed.data_);
}

}  // namespace easyio::pmem
