// Task-stack lifecycle: pooling, re-poisoning on recycle, guard pages, and
// the zero-allocation spawn/exit churn guarantee.
//
// The simulator recycles Task objects and stacks so a workload that spawns
// and finishes uthreads continuously (every fxmark op in EasyIO mode) stops
// touching the heap once the pools warm up. These tests pin that contract
// down with the same operator-new hook page_map_test.cc uses, and verify the
// hardening options: a recycled stack is re-filled with the poison byte
// before reuse, and guard pages make an overflow fault instead of silently
// corrupting the neighboring pool entry.

#include "src/sim/stack_allocator.h"

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
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

namespace easyio::sim {
namespace {

TEST(StackAllocatorTest, RecycledStackIsRepoisoned) {
  StackAllocator alloc({.stack_size = 16 * 1024, .poison = true});
  std::byte* stack = alloc.Acquire();
  EXPECT_TRUE(alloc.FullyPoisoned(stack));

  // A task ran here and left frames behind.
  std::memset(stack, 0x5A, 16 * 1024);
  EXPECT_FALSE(alloc.FullyPoisoned(stack));
  alloc.Release(stack);

  // The pool hands the same stack back, scrubbed: nothing of the previous
  // task's frames may leak into the next one.
  std::byte* again = alloc.Acquire();
  EXPECT_EQ(again, stack);
  EXPECT_TRUE(alloc.FullyPoisoned(again));
  EXPECT_EQ(alloc.stacks_created(), 1u);
}

TEST(StackAllocatorTest, PoolReusesBeforeCreating) {
  StackAllocator alloc({.stack_size = 16 * 1024});
  std::byte* a = alloc.Acquire();
  std::byte* b = alloc.Acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.stacks_created(), 2u);
  alloc.Release(a);
  alloc.Release(b);
  alloc.Acquire();
  alloc.Acquire();
  EXPECT_EQ(alloc.stacks_created(), 2u);
}

TEST(StackAllocatorTest, GuardPageStacksAreUsable) {
  StackAllocator alloc({.stack_size = 16 * 1024, .guard_pages = true,
                        .poison = true});
  std::byte* stack = alloc.Acquire();
  // The whole advertised range is mapped read-write.
  std::memset(stack, 0x11, alloc.stack_size());
  alloc.Release(stack);
  EXPECT_TRUE(alloc.FullyPoisoned(alloc.Acquire()));
}

TEST(StackAllocatorDeathTest, GuardPageCatchesOverflow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StackAllocator alloc({.stack_size = 16 * 1024, .guard_pages = true});
  std::byte* stack = alloc.Acquire();
  // One byte below the usable range is the PROT_NONE guard: an overflowing
  // push must fault, not scribble over a neighboring stack.
  EXPECT_DEATH(
      {
        auto* below = const_cast<volatile std::byte*>(stack) - 1;
        *below = std::byte{0xFF};
      },
      "");
}

TEST(SimStackTest, TasksRunOnPoisonedAndGuardedStacks) {
  // Hardening options must not disturb execution: tasks run, block, wake and
  // finish normally on mmap'd guarded, poisoned stacks.
  Simulation sim({.num_cores = 2,
                  .stack_size = 64 * 1024,
                  .stack_guard_pages = true,
                  .poison_stacks = true});
  int finished = 0;
  for (int i = 0; i < 8; ++i) {
    sim.SpawnDetached(i % 2, [&sim, &finished] {
      sim.Advance(100);
      sim.Yield();
      sim.Advance(50);
      finished++;
    });
  }
  sim.Run();
  EXPECT_EQ(finished, 8);
}

TEST(SimStackTest, DetachedSpawnChurnIsAllocationFree) {
  Simulation sim({.num_cores = 2});
  auto spawn_wave = [&sim] {
    for (int i = 0; i < 8; ++i) {
      sim.SpawnDetached(i % 2, [&sim] {
        sim.Advance(100);
        sim.Yield();
        sim.Advance(50);
      });
    }
  };
  // Warm up every pool: Task objects, stacks, event slab, event heap, run
  // queues. Two waves so the free lists see a full recycle cycle.
  for (int w = 0; w < 2; ++w) {
    spawn_wave();
    sim.Run();
  }
  const size_t stacks_before = sim.stacks_created();

  g_alloc_count = 0;
  g_count_allocs = true;
  for (int w = 0; w < 50; ++w) {
    spawn_wave();
    sim.Run();
  }
  g_count_allocs = false;

  EXPECT_EQ(g_alloc_count, 0u)
      << "spawn/exit churn allocated in steady state";
  EXPECT_EQ(sim.stacks_created(), stacks_before)
      << "spawn/exit churn mapped new stacks instead of recycling";
}

TEST(SimStackTest, LockStepBlockWakeLoopIsAllocationFree) {
  // Four cores: core 0's task blocks every step and core 1's wakes it;
  // core 2's task blocks holding its core and core 3's wakes it. Advance
  // resumes, core-holding wakes and kicks all ride the direct task-to-task
  // path or the host loop's records, and none of them may allocate once
  // the event heap and run queues have warmed up.
  Simulation sim({.num_cores = 4});
  Task* parked[2] = {nullptr, nullptr};
  for (int pair = 0; pair < 2; ++pair) {
    const bool hold_core = pair == 1;
    sim.Spawn(2 * pair, [&sim, &parked, pair, hold_core] {
      for (;;) {
        sim.Advance(7);
        parked[pair] = sim.current();
        if (hold_core) {
          sim.BlockHoldingCore();
        } else {
          sim.Block();
        }
      }
    });
    sim.Spawn(2 * pair + 1, [&sim, &parked, pair] {
      for (;;) {
        if (parked[pair] != nullptr) {
          sim.Wake(std::exchange(parked[pair], nullptr));
        }
        sim.Advance(8);
      }
    });
  }
  sim.RunUntil(20'000);
  const uint64_t switches_before = sim.context_switches();

  g_alloc_count = 0;
  g_count_allocs = true;
  sim.RunUntil(400'000);
  g_count_allocs = false;

  EXPECT_EQ(g_alloc_count, 0u)
      << "the Advance/Block/Wake loop allocated in steady state";
  EXPECT_GT(sim.context_switches() - switches_before, 100'000u);
}

}  // namespace
}  // namespace easyio::sim
