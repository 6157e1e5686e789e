// PageMap edge cases and the steady-state allocation-free guarantee.
//
// The flat sorted-vector PageMap is on the simulator's per-operation hot
// path; besides the split/merge semantics, these tests pin down the
// performance contract: once the extent array and the caller's displaced
// vector have warmed up, Insert/ForEachSegment perform zero heap
// allocations.

#include "src/nova/page_map.h"

#include <cstdlib>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/units.h"
#include "src/nova/layout.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"

// ---- operator-new hook (counts allocations when armed) ----

namespace {
bool g_count_allocs = false;
size_t g_alloc_count = 0;
}  // namespace

void* operator new(size_t n) {
  if (g_count_allocs) {
    g_alloc_count++;
  }
  void* p = std::malloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(size_t n, const std::nothrow_t&) noexcept {
  if (g_count_allocs) {
    g_alloc_count++;
  }
  return std::malloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace easyio::nova {
namespace {

constexpr uint64_t kBase = 1_MB;

uint64_t Blk(uint64_t page_idx) { return kBase + page_idx * kBlockSize; }

TEST(PageMapEdgeTest, OverlapSplitsHeadOfExistingExtent) {
  PageMap map;
  map.Insert(0, 8, Blk(0), 0);
  // New extent covers pages [0, 3): the old extent loses its head.
  const auto displaced = map.Insert(0, 3, Blk(100), 0);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0], (Extent{Blk(0), 3}));

  const auto segs = map.Lookup(0, 8);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (PageMap::Segment{0, 3, Blk(100), false}));
  EXPECT_EQ(segs[1], (PageMap::Segment{3, 5, Blk(3), false}));
  EXPECT_EQ(map.extent_count(), 2u);
  EXPECT_EQ(map.mapped_pages(), 8u);
}

TEST(PageMapEdgeTest, OverlapSplitsTailOfExistingExtent) {
  PageMap map;
  map.Insert(0, 8, Blk(0), 0);
  // New extent covers pages [5, 8): the old extent loses its tail.
  const auto displaced = map.Insert(5, 3, Blk(100), 0);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0], (Extent{Blk(5), 3}));

  const auto segs = map.Lookup(0, 8);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (PageMap::Segment{0, 5, Blk(0), false}));
  EXPECT_EQ(segs[1], (PageMap::Segment{5, 3, Blk(100), false}));
  EXPECT_EQ(map.mapped_pages(), 8u);
}

TEST(PageMapEdgeTest, OverlapSplitsMiddleOfExistingExtent) {
  PageMap map;
  map.Insert(0, 8, Blk(0), 0);
  // New extent in the middle: the old extent splits into head and tail.
  const auto displaced = map.Insert(3, 2, Blk(100), 0);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0], (Extent{Blk(3), 2}));

  const auto segs = map.Lookup(0, 8);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (PageMap::Segment{0, 3, Blk(0), false}));
  EXPECT_EQ(segs[1], (PageMap::Segment{3, 2, Blk(100), false}));
  EXPECT_EQ(segs[2], (PageMap::Segment{5, 3, Blk(5), false}));
  EXPECT_EQ(map.extent_count(), 3u);
  EXPECT_EQ(map.mapped_pages(), 8u);
}

TEST(PageMapEdgeTest, ExactCoverReplacesWholeExtent) {
  PageMap map;
  map.Insert(2, 4, Blk(0), 0);
  const auto displaced = map.Insert(2, 4, Blk(100), 0);
  ASSERT_EQ(displaced.size(), 1u);
  EXPECT_EQ(displaced[0], (Extent{Blk(0), 4}));
  EXPECT_EQ(map.extent_count(), 1u);

  const auto segs = map.Lookup(2, 4);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (PageMap::Segment{2, 4, Blk(100), false}));
}

TEST(PageMapEdgeTest, InsertSpanningSeveralExtentsDisplacesInOrder) {
  PageMap map;
  map.Insert(0, 2, Blk(0), 0);
  map.Insert(4, 2, Blk(10), 0);
  map.Insert(8, 2, Blk(20), 0);
  // Covers the tail of the first, all of the second, the head of the third.
  const auto displaced = map.Insert(1, 8, Blk(100), 0);
  ASSERT_EQ(displaced.size(), 3u);
  EXPECT_EQ(displaced[0], (Extent{Blk(1), 1}));
  EXPECT_EQ(displaced[1], (Extent{Blk(10), 2}));
  EXPECT_EQ(displaced[2], (Extent{Blk(20), 1}));

  const auto segs = map.Lookup(0, 10);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (PageMap::Segment{0, 1, Blk(0), false}));
  EXPECT_EQ(segs[1], (PageMap::Segment{1, 8, Blk(100), false}));
  EXPECT_EQ(segs[2], (PageMap::Segment{9, 1, Blk(21), false}));
}

TEST(PageMapEdgeTest, LookupCoalescesAdjacentHoles) {
  PageMap map;
  map.Insert(5, 1, Blk(0), 0);
  // Pages [0,5) and [6,10) are unmapped: each side must come back as one
  // coalesced hole, not per-page fragments.
  const auto segs = map.Lookup(0, 10);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], (PageMap::Segment{0, 5, 0, true}));
  EXPECT_EQ(segs[1], (PageMap::Segment{5, 1, Blk(0), false}));
  EXPECT_EQ(segs[2], (PageMap::Segment{6, 4, 0, true}));
}

TEST(PageMapEdgeTest, LookupRangeFullyInsidePredecessorExtent) {
  PageMap map;
  map.Insert(0, 10, Blk(0), 0);
  const auto segs = map.Lookup(3, 4);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (PageMap::Segment{3, 4, Blk(3), false}));
}

TEST(PageMapEdgeTest, LookupEmptyMapIsOneHole) {
  PageMap map;
  const auto segs = map.Lookup(7, 3);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (PageMap::Segment{7, 3, 0, true}));
}

TEST(PageMapEdgeTest, ClearAccountsEveryFreedExtent) {
  PageMap map;
  map.Insert(0, 3, Blk(0), 0);
  map.Insert(10, 2, Blk(50), 0);
  map.Insert(1, 1, Blk(70), 0);  // splits the first extent
  ASSERT_EQ(map.mapped_pages(), 5u);

  std::vector<Extent> freed;
  map.Clear(&freed);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.extent_count(), 0u);
  EXPECT_EQ(map.mapped_pages(), 0u);

  uint64_t total = 0;
  for (const Extent& e : freed) {
    total += e.pages;
  }
  // Everything currently mapped is released: 5 mapped pages across 4 extents
  // (0-split head, the overwrite, the split tail, the distant extent).
  EXPECT_EQ(total, 5u);
  ASSERT_EQ(freed.size(), 4u);
}

TEST(PageMapEdgeTest, DisplacedVectorIsAppendedNotCleared) {
  PageMap map;
  map.Insert(0, 2, Blk(0), 0);
  std::vector<Extent> displaced{Extent{12345, 99}};
  map.Insert(0, 2, Blk(100), 0, &displaced);
  ASSERT_EQ(displaced.size(), 2u);
  EXPECT_EQ(displaced[0], (Extent{12345, 99}));
  EXPECT_EQ(displaced[1], (Extent{Blk(0), 2}));
}

// ---- steady-state zero-allocation guarantee ----

TEST(PageMapAllocationTest, SteadyStateInsertAndLookupAllocateNothing) {
  PageMap map;
  map.Reserve(64);
  std::vector<Extent> displaced;
  displaced.reserve(64);

  // Warm up: populate a 32-page file and run one full round of the pattern
  // below so every container reaches its steady-state capacity.
  auto round = [&](uint64_t salt) {
    // Full-file rewrite, partial overwrites splitting head/mid/tail, and
    // streaming lookups — the shapes the write/read paths produce.
    map.Insert(0, 32, Blk(salt % 7), 0, &displaced);
    map.Insert(0, 4, Blk(40 + salt % 5), 0, &displaced);
    map.Insert(14, 3, Blk(50 + salt % 5), 0, &displaced);
    map.Insert(29, 3, Blk(60 + salt % 5), 0, &displaced);
    uint64_t pages_seen = 0;
    map.ForEachSegment(0, 32, [&](const PageMap::Segment& s) {
      pages_seen += s.pages;
      EXPECT_FALSE(s.hole);
    });
    EXPECT_EQ(pages_seen, 32u);
    displaced.clear();
  };
  round(0);
  round(1);

  g_alloc_count = 0;
  g_count_allocs = true;
  for (uint64_t i = 0; i < 1000; ++i) {
    round(i);
  }
  g_count_allocs = false;
  EXPECT_EQ(g_alloc_count, 0u)
      << "PageMap hot path allocated in steady state";
}

// The observability macros must preserve the zero-allocation guarantee when
// no tracer is installed: their entire disabled-path cost is the obs::Get()
// null check, so a hot loop over every macro kind may not touch the heap.
TEST(PageMapAllocTest, ObsMacrosAllocFreeWhenDisabled) {
  ASSERT_EQ(easyio::obs::Get(), nullptr);
  g_alloc_count = 0;
  g_count_allocs = true;
  for (int i = 0; i < 100000; ++i) {
    OBS_EVENT(easyio::obs::Track(easyio::obs::kProcFs, 0), "e",
              {"k", static_cast<uint64_t>(i)});
    OBS_EVENT_SAMPLED(easyio::obs::Track(easyio::obs::kProcFs, 0), "es");
    OBS_COUNTER_SAMPLED(easyio::obs::Track(easyio::obs::kProcCores, 0), "cs",
                        i);
  }
  g_count_allocs = false;
  EXPECT_EQ(g_alloc_count, 0u)
      << "disabled OBS_* macros allocated on the hot path";
}

// Steady-state simulation hot loop (Advance + event schedule/fire + context
// switches through the instrumented DispatchTask path) with tracing
// disabled: zero allocations once stacks, event slab and the run loop have
// warmed up (DESIGN.md §6).
TEST(PageMapAllocTest, SimAdvanceLoopAllocFreeTracingDisabled) {
  ASSERT_EQ(easyio::obs::Get(), nullptr);
  sim::Simulation sim({.num_cores = 2});
  bool stop = false;
  for (int c = 0; c < 2; ++c) {
    sim.Spawn(c, [&sim, &stop] {
      while (!stop) {
        sim.Advance(100);
      }
    });
  }
  sim.RunFor(50000);  // warm up: stacks, event slots, heap vector
  g_alloc_count = 0;
  g_count_allocs = true;
  sim.RunFor(500000);
  g_count_allocs = false;
  EXPECT_EQ(g_alloc_count, 0u)
      << "simulation hot loop allocated with tracing disabled";
  stop = true;
  sim.Run();  // drain: both tasks observe stop and finish
}

}  // namespace
}  // namespace easyio::nova
