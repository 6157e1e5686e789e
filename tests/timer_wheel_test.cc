// TimerWheel determinism: the hierarchical wheel + far-heap combination must
// pop entries in exactly ascending (time, seq) order — bit-for-bit the order
// the pure std::priority_queue it replaced produced. The randomized tests
// drive identical schedule/pop sequences into the wheel and a reference heap
// and require identical output, with PeekTime() equal to the heap's minimum
// after every step; the Simulation-level tests cover the piece the wheel
// delegates to its caller: Cancel() via slab generation tags.

#include "src/sim/timer_wheel.h"

#include <queue>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/simulation.h"

namespace easyio::sim {
namespace {

using Entry = TimerWheel::Entry;
using RefHeap =
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>;

void PopBothAndCompare(TimerWheel* wheel, RefHeap* ref, SimTime* now) {
  Entry got{};
  ASSERT_TRUE(wheel->PopNext(kSimTimeMax, &got));
  const Entry want = ref->top();
  ref->pop();
  ASSERT_EQ(got.time, want.time);
  ASSERT_EQ(got.seq, want.seq);
  *now = got.time;
}

TEST(TimerWheelTest, RandomizedMatchesReferenceHeap) {
  for (const uint64_t seed : {1u, 7u, 99u, 1234u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    TimerWheel wheel;
    RefHeap ref;
    SimTime now = 0;
    uint64_t seq = 1;
    for (int i = 0; i < 30000; ++i) {
      if (ref.empty() || rng() % 10 < 7) {
        // Delays spanning every wheel level plus the far-heap horizon,
        // with plenty of exact ties (dt == 0 and small ranges).
        uint64_t dt = 0;
        switch (rng() % 8) {
          case 0: dt = 0; break;                          // same instant
          case 1: dt = rng() % 8; break;                  // level-0 ties
          case 2: dt = rng() % 64; break;                 // level 0
          case 3: dt = rng() % 4096; break;               // level 1
          case 4: dt = rng() % (uint64_t{1} << 18); break;  // level 2
          case 5: dt = rng() % (uint64_t{1} << 24); break;  // level 3 edge
          case 6: dt = 20'000'000 + rng() % 1000; break;  // just past window
          default: dt = 20'000'000 + rng() % 500'000'000; break;  // far heap
        }
        const Entry e{now + dt, seq++, 0, 0};
        wheel.Insert(e);
        ref.push(e);
      } else {
        PopBothAndCompare(&wheel, &ref, &now);
        if (HasFatalFailure()) {
          return;
        }
      }
      ASSERT_EQ(wheel.PeekTime(), ref.empty() ? kSimTimeMax : ref.top().time);
    }
    while (!ref.empty()) {
      PopBothAndCompare(&wheel, &ref, &now);
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_EQ(wheel.PeekTime(), ref.empty() ? kSimTimeMax : ref.top().time);
    }
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(wheel.size(), 0u);
  }
}

TEST(TimerWheelTest, PopNextHonorsLimit) {
  TimerWheel wheel;
  wheel.Insert({100, 1, 0, 0});
  wheel.Insert({50'000'000, 2, 0, 0});  // lands in the far heap
  Entry e{};
  EXPECT_FALSE(wheel.PopNext(99, &e));
  EXPECT_EQ(wheel.size(), 2u);
  ASSERT_TRUE(wheel.PopNext(100, &e));
  EXPECT_EQ(e.seq, 1u);
  EXPECT_FALSE(wheel.PopNext(1'000'000, &e));
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 2u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, InsertAtFiringInstantPreservesSeqOrder) {
  // An event handler scheduling a zero-delay follow-up inserts at base_ while
  // that slot is mid-fire; the follow-up must run this instant, after every
  // already-staged entry.
  TimerWheel wheel;
  wheel.Insert({10, 1, 0, 0});
  wheel.Insert({10, 2, 0, 0});
  wheel.Insert({12, 3, 0, 0});
  Entry e{};
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 1u);
  wheel.Insert({10, 4, 0, 0});  // scheduled from within the firing instant
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 2u);
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 4u);
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 3u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, HeapWinsTimeTiesAgainstWheel) {
  // A far entry and a later-scheduled wheel entry can share a firing time
  // once the window catches up; the far entry was issued first (smaller seq)
  // and must pop first.
  TimerWheel wheel;
  const SimTime t = 30'000'000;
  wheel.Insert({t, 1, 0, 0});             // beyond the level-3 window: far heap
  wheel.Insert({17'000'000, 2, 0, 0});    // also far (prefix differs from 0)
  Entry e{};
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 2u);  // heap pop dragged base_ to 17ms: t is now in-window
  wheel.Insert({t, 3, 0, 0});  // same time as the far-heap resident
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 1u);
  ASSERT_TRUE(wheel.PopNext(kSimTimeMax, &e));
  EXPECT_EQ(e.seq, 3u);
  EXPECT_TRUE(wheel.empty());
}

// ---- Cancellation (Simulation layer: slab generation tags) ----

TEST(SimCancelTest, StaleIdDoesNotCancelRecycledSlot) {
  Simulation sim({.num_cores = 1});
  int fired = 0;
  const EventId a = sim.ScheduleAfter(10, [&fired] { fired |= 1; });
  sim.Cancel(a);  // frees a's slot for immediate reuse
  const EventId b = sim.ScheduleAfter(10, [&fired] { fired |= 2; });
  EXPECT_NE(a, b);  // same slot or not, the generation differs
  sim.Cancel(a);    // stale id: must not touch b
  sim.Cancel(a);    // double stale cancel: still a no-op
  sim.RunFor(100);
  EXPECT_EQ(fired, 2);
}

TEST(SimCancelTest, CancelAfterFireIsANoOp) {
  Simulation sim({.num_cores = 1});
  int fired = 0;
  const EventId a = sim.ScheduleAfter(10, [&fired] { fired |= 1; });
  sim.RunFor(20);
  EXPECT_EQ(fired, 1);
  const EventId b = sim.ScheduleAfter(10, [&fired] { fired |= 2; });
  sim.Cancel(a);  // a's slot may now back b; the stale id must not cancel it
  sim.RunFor(20);
  EXPECT_EQ(fired, 3);
  (void)b;
}

TEST(SimCancelTest, RandomizedScheduleCancelFire) {
  // Mixed-horizon schedule/cancel churn against the live kernel: exactly the
  // non-cancelled events fire, in (time, issue-order) sequence.
  Simulation sim({.num_cores = 1});
  std::mt19937_64 rng(2024);
  struct Rec {
    SimTime time;
    uint64_t issue;
  };
  std::vector<Rec> fired_log;
  uint64_t issue = 0;
  size_t expected = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> cancelable;
    for (int i = 0; i < 25; ++i) {
      uint64_t dt = 0;
      switch (rng() % 5) {
        case 0: dt = rng() % 64; break;
        case 1: dt = rng() % 4096; break;
        case 2: dt = rng() % 300'000; break;
        case 3: dt = rng() % 20'000'000; break;
        default: dt = 20'000'000 + rng() % 100'000'000; break;
      }
      const Rec r{sim.now() + dt, issue++};
      const EventId id =
          sim.ScheduleAfter(dt, [&fired_log, r] { fired_log.push_back(r); });
      if (rng() % 4 == 0) {
        cancelable.push_back(id);
      } else {
        expected++;
      }
    }
    // Cancel before anything from this round can have fired.
    for (const EventId id : cancelable) {
      sim.Cancel(id);
    }
    sim.RunFor(rng() % 2'000'000);
  }
  sim.Run();  // drain
  ASSERT_EQ(fired_log.size(), expected);
  for (size_t i = 1; i < fired_log.size(); ++i) {
    const Rec& prev = fired_log[i - 1];
    const Rec& cur = fired_log[i];
    ASSERT_TRUE(prev.time < cur.time ||
                (prev.time == cur.time && prev.issue < cur.issue))
        << "out of order at " << i << ": (" << prev.time << "," << prev.issue
        << ") then (" << cur.time << "," << cur.issue << ")";
  }
}

}  // namespace
}  // namespace easyio::sim
