#include "src/pmem/slow_memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/bit_runs.h"
#include "src/common/units.h"

namespace easyio::pmem {

// Released device mappings, each with no dirty page (the pages their owners
// wrote are stale), waiting for a device of the same size. Leaked so that
// devices destroyed during static destruction can still park theirs. The
// mutex is the only lock on the process's one shared mutable state; a
// mapping has one owner at a time.
class ZeroMappedBytes::Pool {
 public:
  static Pool& Get() {
    static Pool* const pool = new Pool;
    return *pool;
  }

  // The parked mapping of exactly `size` bytes that holds the most pages, or
  // one with no data. Preferring the warmest matters when devices of one
  // size are released side by side: a crash sweep parks its live device's
  // mapping and its recovery device's untouched spare, and the next sweep's
  // live device should get the one whose pages are already there.
  Mapping Take(size_t size) {
    std::lock_guard<std::mutex> lock(mu_);
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->size == size &&
          (best == free_.end() || it->held_pages > best->held_pages)) {
        best = it;
      }
    }
    if (best == free_.end()) {
      return {};
    }
    Mapping m = std::move(*best);
    free_.erase(best);
    return m;
  }

  void Park(Mapping m) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(m));
  }

 private:
  std::mutex mu_;
  std::vector<Mapping> free_;
};

template <typename Fn>
void ZeroMappedBytes::ForEachWord(size_t first, size_t end, Fn fn) {
  while (first < end) {
    const size_t stop = std::min(end, (first / 64 + 1) * 64);
    fn(first / 64, Bits(first % 64, (stop - 1) % 64));
    first = stop;
  }
}

ZeroMappedBytes::ZeroMappedBytes(size_t size) {
  if (size == 0) {
    return;
  }
  m_ = Pool::Get().Take(size);
  if (m_.data != nullptr) {
    return;
  }
  static_assert(kPageBytes / kLineBytes == 64);
  const size_t pages = (size + kPageBytes - 1) / kPageBytes;
  void* p = mmap(nullptr, pages * (kPageBytes + sizeof(uint64_t)),
                 PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("easyio: mmap of device backing store failed");
    std::abort();
  }
  m_.data = static_cast<std::byte*>(p);
  m_.size = size;
  m_.stale = reinterpret_cast<uint64_t*>(m_.data + pages * kPageBytes);
  m_.dirty.assign((pages + 63) / 64, 0);
  m_.held.assign((pages + 63) / 64, 0);
}

// Release writes no byte: the owner's pages turn stale and stay mapped, so
// the next owner finds them there instead of paying a fresh fault (per 4 KiB
// page on a 4-vCPU x86-64 VM: memset ~0.5-0.8 us, fault ~2.3-2.6 us). It
// zeroes a stale line only if it reads it, or writes part of it, before
// writing all of it.
ZeroMappedBytes::~ZeroMappedBytes() {
  assert(undo_ == nullptr && "released with an undo session open");
  if (m_.data == nullptr) {
    return;
  }
  for (size_t w = 0; w < m_.dirty.size(); ++w) {
    m_.held_pages +=
        static_cast<size_t>(std::popcount(m_.dirty[w] & ~m_.held[w]));
    m_.held[w] |= m_.dirty[w];
    for (uint64_t bits = m_.dirty[w]; bits != 0; bits &= bits - 1) {
      m_.stale[w * 64 + static_cast<size_t>(std::countr_zero(bits))] =
          ~uint64_t{0};
    }
    m_.dirty[w] = 0;
  }
  Pool::Get().Park(std::move(m_));
}

void ZeroMappedBytes::ZeroStale(size_t first, size_t end) const {
  ForEachRun(m_.stale, first, end, [&](size_t run, size_t run_end) {
    const size_t from = run * kLineBytes;
    const size_t to = std::min(run_end * kLineBytes, m_.size);
    if (undo_ != nullptr) {
      SaveForUndo(from, to - from);
    }
    std::memset(m_.data + from, 0, to - from);
    ForEachWord(run, run_end,
                [&](size_t w, uint64_t bits) { m_.stale[w] &= ~bits; });
  });
}

void ZeroMappedBytes::CopyOutStale(void* dst, size_t off, size_t n) const {
  auto* out = static_cast<std::byte*>(dst);
  const size_t end = off + n;
  size_t done = off;  // device bytes before it are copied out
  ForEachRun(m_.stale, off / kLineBytes, (end - 1) / kLineBytes + 1,
             [&](size_t run, size_t run_end) {
               const size_t from = std::max(off, run * kLineBytes);
               const size_t to = std::min(end, run_end * kLineBytes);
               std::memcpy(out + (done - off), m_.data + done, from - done);
               std::memset(out + (from - off), 0, to - from);
               done = to;
             });
  std::memcpy(out + (done - off), m_.data + done, end - done);
}

void ZeroMappedBytes::Mark(size_t off, size_t n) {
  if (n == 0) {
    return;
  }
  ForEachWord(off / kPageBytes, (off + n - 1) / kPageBytes + 1,
              [&](size_t w, uint64_t bits) { m_.dirty[w] |= bits; });
  ForEachWord(off / kLineBytes, (off + n - 1) / kLineBytes + 1,
              [&](size_t w, uint64_t bits) { m_.stale[w] &= ~bits; });
}

void ZeroMappedBytes::WriteSpan(size_t off, const void* src, size_t n) {
  if (n == 0) {
    return;
  }
  if (undo_ != nullptr) {
    SaveForUndo(off, n);
  }
  // A line the write covers whole needs no zeroing; a stale one it covers
  // partly keeps bytes outside the write, which must read as zero.
  if (off % kLineBytes != 0) {
    Unstale(off, 1);
  }
  if ((off + n) % kLineBytes != 0) {
    Unstale(off + n - 1, 1);
  }
  Mark(off, n);
  std::memcpy(m_.data + off, src, n);
}

// A dirty page's stale lines take the zeroes too; they read as zero either
// way.
void ZeroMappedBytes::Zero(size_t off, size_t n) {
  assert(off + n <= m_.size);
  if (n == 0) {
    return;
  }
  const size_t end = off + n;
  ForEachRun(m_.dirty.data(), off / kPageBytes,
             (end + kPageBytes - 1) / kPageBytes,
             [&](size_t run, size_t run_end) {
               const size_t from = std::max(off, run * kPageBytes);
               const size_t to = std::min(end, run_end * kPageBytes);
               if (undo_ != nullptr) {
                 SaveForUndo(from, to - from);
               }
               std::memset(m_.data + from, 0, to - from);
             });
}

struct ZeroMappedBytes::UndoLog {
  struct Page {
    size_t index;
    bool dirty;
    uint64_t stale;
  };
  std::vector<uint64_t> saved;   // one bit per page of the mapping
  std::vector<Page> pages;       // in save order
  std::vector<std::byte> bytes;  // kPageBytes per entry of `pages`
};

void ZeroMappedBytes::BeginUndo() {
  assert(undo_ == nullptr && m_.data != nullptr);
  undo_ = std::make_unique<UndoLog>();
  undo_->saved.assign(m_.dirty.size(), 0);
}

// A page is saved whole, even the last one of a size that is not a page
// multiple: the mapping extends to the page's end.
void ZeroMappedBytes::SaveForUndo(size_t off, size_t n) const {
  if (n == 0) {
    return;
  }
  UndoLog& log = *undo_;
  for (size_t p = off / kPageBytes; p <= (off + n - 1) / kPageBytes; ++p) {
    const uint64_t bit = uint64_t{1} << (p % 64);
    if ((log.saved[p / 64] & bit) != 0) {
      continue;
    }
    log.saved[p / 64] |= bit;
    log.pages.push_back({p, (m_.dirty[p / 64] & bit) != 0, m_.stale[p]});
    const std::byte* page = m_.data + p * kPageBytes;
    log.bytes.insert(log.bytes.end(), page, page + kPageBytes);
  }
}

void ZeroMappedBytes::Rollback() {
  assert(undo_ != nullptr);
  const UndoLog& log = *undo_;
  for (size_t i = 0; i < log.pages.size(); ++i) {
    const UndoLog::Page& page = log.pages[i];
    std::memcpy(m_.data + page.index * kPageBytes,
                log.bytes.data() + i * kPageBytes, kPageBytes);
    const uint64_t bit = uint64_t{1} << (page.index % 64);
    uint64_t& dirty = m_.dirty[page.index / 64];
    dirty = page.dirty ? dirty | bit : dirty & ~bit;
    m_.stale[page.index] = page.stale;
  }
  undo_.reset();
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
  if (std::abs(util - *last_util) < 0.02 || poke_.armed()) {
    return;
  }
  *last_util = util;
  sim_->Rearm(poke_, sim_->now(), &SlowMemory::RunCrossPoke, this,
              target == write_flows_.get() ? 1 : 0);
}

void SlowMemory::RunCrossPoke(void* mem, uint64_t poke_write) {
  auto* self = static_cast<SlowMemory*>(mem);
  (poke_write != 0 ? self->write_flows_ : self->read_flows_)->Poke();
}

void SlowMemory::CpuWrite(uint64_t dst_off, const void* src, size_t n) {
  assert(dst_off + n <= data_.size());
  assert(sim_->in_task());
  sim::Task* task = sim_->current();
  // Lands at completion; `src` stays put, as its task holds the core.
  write_flows_->StartFlow(
      n, params_.cpu_write_cap.Lookup(n), sim::FlowType::kCpu,
      [this, task, dst_off, src, n] {
        data_.Write(dst_off, src, n);
        sim_->Wake(task);
      },
      {dst_off, src});
  sim_->BlockHoldingCore();
  PersistBarrier();
}

void SlowMemory::CpuRead(void* dst, uint64_t src_off, size_t n) {
  assert(src_off + n <= data_.size());
  assert(sim_->in_task());
  data_.CopyOut(dst, src_off, n);
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
  data_.Write(dst_off, src, n);
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

template <typename Fn>
void SlowMemory::ForEachDurablePrefix(Fn land) const {
  if (!crash_tracking_) {
    return;
  }
#ifndef NDEBUG
  // No two in-flight writes overlap, so the order prefixes land in does not
  // matter.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  write_flows_->ForEachLanding(
      [&](const sim::FlowResource::Landing& l, uint64_t n, double) {
        ranges.emplace_back(l.dst_off, l.dst_off + n);
      });
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    assert(ranges[i - 1].second <= ranges[i].first &&
           "overlapping in-flight writes");
  }
#endif
  write_flows_->ForEachLanding(
      [&](const sim::FlowResource::Landing& l, uint64_t n, double progress) {
        // Durable prefix in whole cachelines; the rest has not landed.
        const size_t durable =
            (static_cast<size_t>(progress * static_cast<double>(n)) / 64) * 64;
        if (durable > 0) {
          land(l.dst_off, static_cast<const std::byte*>(l.src), durable);
        }
      });
}

std::vector<std::byte> SlowMemory::CrashImage() const {
  const std::byte* bytes = data_.data();
  std::vector<std::byte> image(bytes, bytes + data_.size());
  ForEachDurablePrefix([&](uint64_t off, const std::byte* src, size_t n) {
    std::memcpy(image.data() + off, src, n);
  });
  return image;
}

void SlowMemory::LoadImage(const std::vector<std::byte>& image) {
  assert(image.size() == data_.size());
  data_.Write(0, image.data(), image.size());
}

void SlowMemory::LendCrashImage(SlowMemory& recovery) {
  assert(&recovery != this);
  assert(recovery.data_.size() == data_.size());
  assert(recovery.write_flows_->active_flows(sim::FlowType::kCpu) == 0 &&
         recovery.write_flows_->active_flows(sim::FlowType::kDma) == 0);
  data_.swap(recovery.data_);
  recovery.data_.BeginUndo();
  ForEachDurablePrefix([&](uint64_t off, const std::byte* src, size_t n) {
    recovery.data_.Write(off, src, n);
  });
}

void SlowMemory::ReclaimCrashImage(SlowMemory& recovery) {
  recovery.data_.Rollback();
  data_.swap(recovery.data_);
}

}  // namespace easyio::pmem
