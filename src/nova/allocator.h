// Sharded extent allocator for the 4KB block area.
//
// NOVA keeps per-CPU free lists to scale allocation; we shard the block area
// the same way. Each shard keeps its free runs in a sorted flat vector with
// coalescing on free; allocation prefers the caller's shard and falls back to
// the others, so a single hot shard cannot fail while space remains
// elsewhere.
//
// Hot-path discipline: first-fit allocation shrinks the chosen run in place
// (no erase in the common case), shards that provably cannot satisfy a
// request are skipped via a cached largest-run upper bound, and AllocMulti
// appends into a caller-supplied vector so steady-state writes perform no
// heap allocation. All of this preserves the exact first-fit-by-offset
// placement of the original std::map implementation — the simulated
// behavior (which block every write lands on) is unchanged.

#ifndef EASYIO_NOVA_ALLOCATOR_H_
#define EASYIO_NOVA_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace easyio::nova {

struct Extent {
  uint64_t block_off = 0;  // pmem byte offset of the first block
  uint64_t pages = 0;

  bool operator==(const Extent&) const = default;
};

class BlockAllocator {
 public:
  BlockAllocator(uint64_t area_off, uint64_t num_blocks, int shards);

  // Allocates a contiguous extent of at most `pages` pages (at least 1).
  // Smaller-than-requested extents are returned when fragmentation demands
  // it; callers loop (and emit one log entry / DMA descriptor per extent,
  // exactly as NOVA issues one memcpy per contiguous range).
  StatusOr<Extent> Alloc(uint64_t pages, int shard_hint);

  // Allocates extents covering exactly `pages` pages, appending them to
  // *out (which is not cleared). On failure nothing is appended and any
  // partial progress is rolled back.
  Status AllocMultiInto(uint64_t pages, int shard_hint,
                        std::vector<Extent>* out);

  // Convenience wrapper that materializes the extents.
  StatusOr<std::vector<Extent>> AllocMulti(uint64_t pages, int shard_hint);

  void Free(const Extent& e);

  // Recovery interface: empty the allocator, mark referenced ranges used,
  // then release everything unmarked in one pass. The ranges come from
  // media: MarkUsed returns kCorruption for one that is not whole blocks
  // inside the block area or that holds a block already marked.
  void BeginRecovery();                      // all blocks provisionally free
  Status MarkUsed(uint64_t block_off, uint64_t pages);
  void FinishRecovery();

  uint64_t free_pages() const { return free_pages_; }
  uint64_t total_pages() const { return total_pages_; }
  uint64_t area_off() const { return area_off_; }

 private:
  struct Run {
    uint64_t off;    // pmem byte offset
    uint64_t pages;
  };
  struct Shard {
    std::vector<Run> runs;  // sorted by off, coalesced
    // Upper bound on the largest run in this shard. Never underestimates:
    // raised on free, tightened to the exact maximum whenever a first-fit
    // scan fails. Lets Alloc skip shards that cannot satisfy a request
    // without changing which extent a successful allocation returns.
    uint64_t max_run = 0;
  };

  int ShardOf(uint64_t block_off) const;
  void FreeIntoShard(Shard& shard, uint64_t off, uint64_t pages);

  uint64_t area_off_;
  uint64_t total_pages_;
  uint64_t free_pages_ = 0;
  uint64_t shard_span_;  // bytes of block area per shard
  std::vector<Shard> shards_;
  std::vector<uint64_t> free_bitmap_;  // recovery only; set bit = free
  bool in_recovery_ = false;
};

}  // namespace easyio::nova

#endif  // EASYIO_NOVA_ALLOCATOR_H_
