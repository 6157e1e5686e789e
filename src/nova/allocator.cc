#include "src/nova/allocator.h"

#include <algorithm>
#include <cassert>

#include "src/common/bit_runs.h"
#include "src/nova/layout.h"

namespace easyio::nova {

BlockAllocator::BlockAllocator(uint64_t area_off, uint64_t num_blocks,
                               int shards)
    : area_off_(area_off), total_pages_(num_blocks) {
  assert(shards >= 1);
  shards_.resize(static_cast<size_t>(shards));
  const uint64_t pages_per_shard =
      std::max<uint64_t>(1, (num_blocks + shards - 1) / shards);
  shard_span_ = pages_per_shard * kBlockSize;
  // Seed each shard with its stripe of the block area.
  uint64_t off = area_off;
  uint64_t remaining = num_blocks;
  for (auto& shard : shards_) {
    if (remaining == 0) {
      break;
    }
    const uint64_t pages = std::min(remaining, pages_per_shard);
    shard.runs.push_back(Run{off, pages});
    shard.max_run = pages;
    off += pages * kBlockSize;
    remaining -= pages;
  }
  free_pages_ = num_blocks;
}

int BlockAllocator::ShardOf(uint64_t block_off) const {
  const uint64_t idx = (block_off - area_off_) / shard_span_;
  return static_cast<int>(
      std::min<uint64_t>(idx, shards_.size() - 1));
}

StatusOr<Extent> BlockAllocator::Alloc(uint64_t pages, int shard_hint) {
  assert(pages >= 1);
  assert(!in_recovery_);
  const int n = static_cast<int>(shards_.size());
  int start = ((shard_hint % n) + n) % n;
  // First pass: first fit (lowest offset) in the hint shard, then the
  // others. Shards whose cached largest-run bound rules them out are
  // skipped — the scan would have failed there anyway.
  for (int probe = 0; probe < n; ++probe) {
    Shard& shard = shards_[static_cast<size_t>((start + probe) % n)];
    if (shard.max_run < pages) {
      continue;
    }
    uint64_t seen_max = 0;
    bool found = false;
    for (Run& run : shard.runs) {
      if (run.pages >= pages) {
        found = true;
        const Extent e{run.off, pages};
        run.off += pages * kBlockSize;
        run.pages -= pages;
        if (run.pages == 0) {
          shard.runs.erase(shard.runs.begin() + (&run - shard.runs.data()));
        }
        free_pages_ -= pages;
        return e;
      }
      seen_max = std::max(seen_max, run.pages);
    }
    if (!found) {
      shard.max_run = seen_max;  // tighten the bound for future requests
    }
  }
  // Second pass: take the largest available extent (fragmented device).
  Shard* best_shard = nullptr;
  size_t best_idx = 0;
  uint64_t best_pages = 0;
  for (Shard& shard : shards_) {
    uint64_t shard_max = 0;
    for (size_t i = 0; i < shard.runs.size(); ++i) {
      shard_max = std::max(shard_max, shard.runs[i].pages);
      if (shard.runs[i].pages > best_pages) {
        best_pages = shard.runs[i].pages;
        best_idx = i;
        best_shard = &shard;
      }
    }
    shard.max_run = shard_max;  // exact, we just scanned everything
  }
  if (best_shard == nullptr) {
    return NoSpace("block allocator exhausted");
  }
  const Extent e{best_shard->runs[best_idx].off, best_pages};
  best_shard->runs.erase(best_shard->runs.begin() +
                         static_cast<ptrdiff_t>(best_idx));
  free_pages_ -= best_pages;
  return e;
}

Status BlockAllocator::AllocMultiInto(uint64_t pages, int shard_hint,
                                      std::vector<Extent>* out) {
  const size_t first = out->size();
  uint64_t remaining = pages;
  while (remaining > 0) {
    auto e = Alloc(remaining, shard_hint);
    if (!e.ok()) {
      for (size_t i = first; i < out->size(); ++i) {
        Free((*out)[i]);
      }
      out->resize(first);
      return e.status();
    }
    remaining -= e->pages;
    out->push_back(*e);
  }
  return OkStatus();
}

StatusOr<std::vector<Extent>> BlockAllocator::AllocMulti(uint64_t pages,
                                                         int shard_hint) {
  std::vector<Extent> extents;
  EASYIO_RETURN_IF_ERROR(AllocMultiInto(pages, shard_hint, &extents));
  return extents;
}

void BlockAllocator::FreeIntoShard(Shard& shard, uint64_t off,
                                   uint64_t pages) {
  auto& runs = shard.runs;
  auto next = std::lower_bound(
      runs.begin(), runs.end(), off,
      [](const Run& r, uint64_t v) { return r.off < v; });
  bool merged_prev = false;
  if (next != runs.begin()) {
    auto prev = std::prev(next);
    assert(prev->off + prev->pages * kBlockSize <= off && "double free");
    if (prev->off + prev->pages * kBlockSize == off) {
      prev->pages += pages;
      off = prev->off;
      pages = prev->pages;
      merged_prev = true;
      next = prev + 1;
    }
  }
  if (next != runs.end()) {
    assert(off + pages * kBlockSize <= next->off && "double free");
    if (off + pages * kBlockSize == next->off) {
      if (merged_prev) {
        // prev absorbed the freed range; absorb next into prev too.
        std::prev(next)->pages += next->pages;
        pages += next->pages;
        runs.erase(next);
      } else {
        next->off = off;
        next->pages += pages;
        pages = next->pages;
        merged_prev = true;
      }
    }
  }
  if (!merged_prev) {
    runs.insert(next, Run{off, pages});
  }
  shard.max_run = std::max(shard.max_run, pages);
}

void BlockAllocator::Free(const Extent& e) {
  assert(!in_recovery_);
  assert(e.pages > 0);
  // An extent allocated near a shard boundary may span two stripes; keep the
  // free map consistent by splitting on the home shard only (extents are
  // always freed exactly as allocated or as split by the page map, so
  // shard-of-first-block is stable enough for bookkeeping).
  FreeIntoShard(shards_[static_cast<size_t>(ShardOf(e.block_off))],
                e.block_off, e.pages);
  free_pages_ += e.pages;
}

void BlockAllocator::BeginRecovery() {
  in_recovery_ = true;
  for (auto& shard : shards_) {
    shard.runs.clear();
    shard.max_run = 0;
  }
  free_pages_ = 0;
  // A set bit means provisionally free.
  free_bitmap_.assign((total_pages_ + 63) / 64, ~uint64_t{0});
}

Status BlockAllocator::MarkUsed(uint64_t block_off, uint64_t pages) {
  assert(in_recovery_);
  // Check the range before it indexes the bitmap.
  if (block_off < area_off_ || (block_off - area_off_) % kBlockSize != 0) {
    return Corruption("block reference outside the block area");
  }
  const uint64_t first = (block_off - area_off_) / kBlockSize;
  if (first >= total_pages_ || pages > total_pages_ - first) {
    return Corruption("block reference outside the block area");
  }
  for (uint64_t i = first; i < first + pages; ++i) {
    const uint64_t bit = uint64_t{1} << (i % 64);
    if ((free_bitmap_[i / 64] & bit) == 0) {
      return Corruption("block referenced twice");
    }
    free_bitmap_[i / 64] &= ~bit;
  }
  return OkStatus();
}

void BlockAllocator::FinishRecovery() {
  assert(in_recovery_);
  // Sweep free runs back into their shards, in ascending order.
  auto flush = [&](size_t run_start, size_t run_end) {
    uint64_t off = area_off_ + run_start * kBlockSize;
    uint64_t pages = run_end - run_start;
    free_pages_ += pages;
    // Split runs on shard boundaries so stripes stay balanced.
    while (pages > 0) {
      const int shard = ShardOf(off);
      const uint64_t shard_end =
          area_off_ + (static_cast<uint64_t>(shard) + 1) * shard_span_;
      const uint64_t fit =
          std::min(pages, (shard_end - off) / kBlockSize);
      const uint64_t took = fit == 0 ? pages : fit;
      FreeIntoShard(shards_[static_cast<size_t>(shard)], off, took);
      off += took * kBlockSize;
      pages -= took;
    }
  };
  ForEachRun(free_bitmap_.data(), 0, total_pages_, flush);
  free_bitmap_.clear();
  in_recovery_ = false;
}

}  // namespace easyio::nova
