// Unit tests for NOVA's internal building blocks: the extent allocator, the
// in-DRAM page map, and the redo journal.

#include <gtest/gtest.h>

#include <set>

#include "src/common/units.h"
#include "src/nova/allocator.h"
#include "src/nova/journal.h"
#include "src/nova/layout.h"
#include "src/nova/page_map.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::nova {
namespace {

constexpr uint64_t kArea = 1_MB;  // allocator area offset for tests

TEST(AllocatorTest, AllocAndFreeRoundTrip) {
  BlockAllocator alloc(kArea, 1024, 4);
  EXPECT_EQ(alloc.free_pages(), 1024u);
  auto e = alloc.Alloc(16, 0);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->pages, 16u);
  EXPECT_GE(e->block_off, kArea);
  EXPECT_EQ(alloc.free_pages(), 1008u);
  alloc.Free(*e);
  EXPECT_EQ(alloc.free_pages(), 1024u);
}

TEST(AllocatorTest, DistinctExtents) {
  BlockAllocator alloc(kArea, 256, 2);
  std::set<uint64_t> offs;
  for (int i = 0; i < 16; ++i) {
    auto e = alloc.Alloc(16, i);
    ASSERT_TRUE(e.ok());
    for (uint64_t p = 0; p < e->pages; ++p) {
      EXPECT_TRUE(offs.insert(e->block_off + p * kBlockSize).second)
          << "double allocation";
    }
  }
  EXPECT_EQ(alloc.free_pages(), 0u);
  EXPECT_FALSE(alloc.Alloc(1, 0).ok());
}

TEST(AllocatorTest, CoalescingRebuildsLargeExtents) {
  BlockAllocator alloc(kArea, 64, 1);
  auto a = alloc.Alloc(16, 0);
  auto b = alloc.Alloc(16, 0);
  auto c = alloc.Alloc(16, 0);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  alloc.Free(*a);
  alloc.Free(*c);
  alloc.Free(*b);  // middle free must merge all three
  auto big = alloc.Alloc(48, 0);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->pages, 48u);
}

TEST(AllocatorTest, FragmentationYieldsPartialExtents) {
  BlockAllocator alloc(kArea, 8, 1);
  auto a = alloc.Alloc(3, 0);
  auto b = alloc.Alloc(3, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  alloc.Free(*a);
  // 3 free at the front, 2 at the back; a request for 5 must span both.
  auto multi = alloc.AllocMulti(5, 0);
  ASSERT_TRUE(multi.ok());
  uint64_t total = 0;
  for (const Extent& e : *multi) {
    total += e.pages;
  }
  EXPECT_EQ(total, 5u);
  EXPECT_GE(multi->size(), 2u);
}

TEST(AllocatorTest, AllocMultiRollsBackOnFailure) {
  BlockAllocator alloc(kArea, 8, 1);
  auto hold = alloc.Alloc(4, 0);
  ASSERT_TRUE(hold.ok());
  EXPECT_FALSE(alloc.AllocMulti(5, 0).ok());  // only 4 left
  EXPECT_EQ(alloc.free_pages(), 4u);          // nothing leaked
}

TEST(AllocatorTest, RecoveryMarksAndSweeps) {
  BlockAllocator alloc(kArea, 64, 4);
  alloc.BeginRecovery();
  ASSERT_TRUE(alloc.MarkUsed(kArea + 4 * kBlockSize, 4).ok());
  ASSERT_TRUE(alloc.MarkUsed(kArea + 20 * kBlockSize, 1).ok());
  alloc.FinishRecovery();
  EXPECT_EQ(alloc.free_pages(), 59u);
  // The marked ranges must not be handed out.
  std::set<uint64_t> used;
  while (true) {
    auto e = alloc.Alloc(1, 0);
    if (!e.ok()) {
      break;
    }
    used.insert(e->block_off);
  }
  EXPECT_EQ(used.size(), 59u);
  for (uint64_t p = 4; p < 8; ++p) {
    EXPECT_FALSE(used.contains(kArea + p * kBlockSize));
  }
  EXPECT_FALSE(used.contains(kArea + 20 * kBlockSize));
}

TEST(AllocatorTest, RecoverySweepCrossesWordBoundaries) {
  // 200 blocks span four bitmap words, the last one partial; the marked
  // ranges straddle a word boundary, fill one bit of a word and end at the
  // area's last block.
  BlockAllocator alloc(kArea, 200, 3);
  alloc.BeginRecovery();
  ASSERT_TRUE(alloc.MarkUsed(kArea + 60 * kBlockSize, 10).ok());
  ASSERT_TRUE(alloc.MarkUsed(kArea + 128 * kBlockSize, 1).ok());
  ASSERT_TRUE(alloc.MarkUsed(kArea + 199 * kBlockSize, 1).ok());
  alloc.FinishRecovery();
  EXPECT_EQ(alloc.free_pages(), 188u);
  std::set<uint64_t> free_blocks;
  while (true) {
    auto e = alloc.Alloc(1, 0);
    if (!e.ok()) {
      break;
    }
    free_blocks.insert((e->block_off - kArea) / kBlockSize);
  }
  for (uint64_t p = 0; p < 200; ++p) {
    const bool used = (p >= 60 && p < 70) || p == 128 || p == 199;
    EXPECT_EQ(free_blocks.contains(p), !used) << "block " << p;
  }
}

TEST(AllocatorTest, RecoveryRejectsBadReferences) {
  // Recovery reads block references from media: a range off the block
  // area, a misaligned one or a block marked twice is corruption, not a
  // crash.
  BlockAllocator alloc(kArea, 64, 4);
  alloc.BeginRecovery();
  EXPECT_EQ(alloc.MarkUsed(kArea - kBlockSize, 1).code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(alloc.MarkUsed(kArea + 64 * kBlockSize, 1).code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(alloc.MarkUsed(kArea + 60 * kBlockSize, 5).code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(alloc.MarkUsed(kArea + 60 * kBlockSize, UINT64_MAX).code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(alloc.MarkUsed(kArea + (1ull << 62), 1).code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(alloc.MarkUsed(kArea + 64, 1).code(), ErrorCode::kCorruption);
  ASSERT_TRUE(alloc.MarkUsed(kArea + 10 * kBlockSize, 2).ok());
  EXPECT_EQ(alloc.MarkUsed(kArea + 11 * kBlockSize, 1).code(),
            ErrorCode::kCorruption);
  alloc.FinishRecovery();
  EXPECT_EQ(alloc.free_pages(), 62u);
}

TEST(PageMapTest, InsertAndLookup) {
  PageMap map;
  EXPECT_TRUE(map.Insert(0, 4, 1_MB, 0).empty());
  auto segs = map.Lookup(0, 4);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].block_off, 1_MB);
  EXPECT_EQ(segs[0].pages, 4u);
  EXPECT_FALSE(segs[0].hole);
}

TEST(PageMapTest, LookupReportsHoles) {
  PageMap map;
  map.Insert(2, 2, 1_MB, 0);
  auto segs = map.Lookup(0, 6);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_TRUE(segs[0].hole);
  EXPECT_EQ(segs[0].pages, 2u);
  EXPECT_FALSE(segs[1].hole);
  EXPECT_TRUE(segs[2].hole);
  EXPECT_EQ(segs[2].pgoff, 4u);
}

TEST(PageMapTest, OverwriteDisplacesExactly) {
  PageMap map;
  map.Insert(0, 8, 1_MB, 0);
  auto displaced = map.Insert(2, 3, 2_MB, 0);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0].block_off, 1_MB + 2 * kBlockSize);
  EXPECT_EQ(displaced[0].pages, 3u);
  // Mapping: [0,2)->old, [2,5)->new, [5,8)->old.
  auto segs = map.Lookup(0, 8);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].block_off, 1_MB);
  EXPECT_EQ(segs[1].block_off, 2_MB);
  EXPECT_EQ(segs[2].block_off, 1_MB + 5 * kBlockSize);
  EXPECT_EQ(map.mapped_pages(), 8u);
}

TEST(PageMapTest, OverwriteSpanningMultipleExtents) {
  PageMap map;
  map.Insert(0, 2, 1_MB, 0);
  map.Insert(2, 2, 2_MB, 0);
  map.Insert(4, 2, 3_MB, 0);
  auto displaced = map.Insert(1, 4, 4_MB, 0);
  // Displaces the tail of extent 1, all of extent 2, head of extent 3.
  uint64_t total = 0;
  for (const Extent& e : displaced) {
    total += e.pages;
  }
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(map.mapped_pages(), 6u);
  auto segs = map.Lookup(0, 6);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[1].block_off, 4_MB);
  EXPECT_EQ(segs[1].pages, 4u);
}

TEST(PageMapTest, ExactCoverDisplacesWholeExtent) {
  PageMap map;
  map.Insert(3, 5, 1_MB, 0);
  auto displaced = map.Insert(3, 5, 2_MB, 0);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0], (Extent{1_MB, 5}));
  EXPECT_EQ(map.extent_count(), 1u);
}

TEST(PageMapTest, ClearReturnsEverything) {
  PageMap map;
  map.Insert(0, 2, 1_MB, 0);
  map.Insert(10, 3, 2_MB, 0);
  std::vector<Extent> freed;
  map.Clear(&freed);
  EXPECT_EQ(freed.size(), 2u);
  EXPECT_TRUE(map.empty());
}

TEST(LayoutTest, RegionsAreDisjointAndOrdered) {
  const Layout l = Layout::Compute(256_MB, 16384, 64);
  EXPECT_GE(l.comp_region_off, kBlockSize);
  EXPECT_GT(l.journal_off, l.comp_region_off);
  EXPECT_GT(l.inode_table_off, l.journal_off);
  EXPECT_GT(l.block_area_off, l.inode_table_off);
  EXPECT_GE(l.inode_table_off - l.journal_off, 64 * kBlockSize);
  EXPECT_GT(l.block_count, 0u);
  EXPECT_LE(l.block_area_off + l.block_count * kBlockSize, 256_MB);
}

TEST(JournalTest, CommitAppliesWrites) {
  sim::Simulation sim({.num_cores = 1});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 4_MB);
  Journal j(&mem, 0, 4);
  sim.Spawn(0, [&] {
    const JournalRecord::JWrite writes[] = {
        {1_MB, 0x1111}, {1_MB + 64, 0x2222}};
    j.CommitAndApply(writes, 0);
  });
  sim.Run();
  EXPECT_EQ(*mem.As<uint64_t>(1_MB), 0x1111u);
  EXPECT_EQ(*mem.As<uint64_t>(1_MB + 64), 0x2222u);
  // Slot cleared after apply.
  EXPECT_EQ(mem.As<JournalRecord>(0)->state, 0u);
}

TEST(JournalTest, RecoverReplaysCommittedRecord) {
  sim::Simulation sim({.num_cores = 1});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 4_MB);
  // Hand-craft a committed-but-unapplied record (crash between commit and
  // apply).
  JournalRecord rec{};
  rec.count = 1;
  rec.writes[0] = {2_MB, 0xabcd};
  rec.csum = rec.ComputeCsum();
  rec.state = 1;
  mem.Write(kBlockSize, &rec, sizeof(rec));
  EXPECT_EQ(Journal::Recover(&mem, 0, 4), 1);
  EXPECT_EQ(*mem.As<uint64_t>(2_MB), 0xabcdu);
  EXPECT_EQ(mem.As<JournalRecord>(kBlockSize)->state, 0u);
}

TEST(JournalTest, RecoverIgnoresUncommitted) {
  sim::Simulation sim({.num_cores = 1});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 4_MB);
  JournalRecord rec{};
  rec.count = 1;
  rec.writes[0] = {2_MB, 0xabcd};
  rec.csum = rec.ComputeCsum();
  rec.state = 0;  // never committed
  mem.Write(0, &rec, sizeof(rec));
  EXPECT_EQ(Journal::Recover(&mem, 0, 4), 0);
  EXPECT_EQ(*mem.As<uint64_t>(2_MB), 0u);
}

TEST(JournalTest, RecoverDiscardsTornRecord) {
  sim::Simulation sim({.num_cores = 1});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 4_MB);
  JournalRecord rec{};
  rec.count = 2;
  rec.writes[0] = {2_MB, 0xabcd};
  rec.csum = 0xdeadbeef;  // wrong
  rec.state = 1;
  mem.Write(0, &rec, sizeof(rec));
  EXPECT_EQ(Journal::Recover(&mem, 0, 4), 0);
  EXPECT_EQ(*mem.As<uint64_t>(2_MB), 0u);
  EXPECT_EQ(mem.As<JournalRecord>(0)->state, 0u);  // cleaned up
}

}  // namespace
}  // namespace easyio::nova
