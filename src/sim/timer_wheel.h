// TimerWheel: the event loop's pending-event store — a hierarchical timing
// wheel with a binary-heap fallback for far-future events.
//
// The simulator schedules and fires one event per modeled delay, so the
// std::priority_queue this replaces paid an O(log n) sift on both ends of
// every Advance/Wake/Kick. The wheel makes the common case O(1): four
// levels of 64 slots each, level l covering a 64^(l+1) ns window around the
// wheel's base time (64 ns, 4 µs, 262 µs, 16.7 ms — virtually every modeled
// delay in this codebase is under the level-3 horizon). An event beyond the
// level-3 window falls back to the heap, which needs no migration: by the
// time a far event is due it is the global minimum and fires straight from
// the heap.
//
// Determinism contract (the whole point): PopNext returns entries in exactly
// ascending (time, seq) order, bit-for-bit the order the pure heap produced.
// tests/timer_wheel_test.cc drives randomized schedule/pop sequences against
// a reference heap to pin this down. The load-bearing facts:
//
//  * A level-0 slot holds entries of exactly one nanosecond (slot index is
//    the low 6 bits of the absolute time, and all level-0 entries share the
//    remaining bits with base), so firing a slot means sorting its entries
//    by seq — and cascades from higher levels are the only reason the list
//    can be out of seq order at all.
//  * Heap-vs-wheel ties at one time always fire the heap first: an entry is
//    heap-resident only if it was scheduled before base entered its 16.7 ms
//    window, i.e. strictly earlier than any wheel entry at the same time, so
//    its seq is strictly smaller.
//  * base only advances to the time of the minimum remaining entry (it never
//    runs ahead of virtual now), so inserts behind base cannot happen and
//    cascading only ever moves entries downward.
//
// Cancellation stays in the caller (Simulation's generation tags): the wheel
// returns every inserted entry and the caller drops stale ones, exactly like
// the lazy-cancel heap did.

#ifndef EASYIO_SIM_TIMER_WHEEL_H_
#define EASYIO_SIM_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "src/sim/time.h"

namespace easyio::sim {

class TimerWheel {
 public:
  struct Entry {
    SimTime time;
    uint64_t seq;   // FIFO tie-break among same-time entries
    uint32_t slot;  // caller payload (Simulation's event-slab slot)
    uint32_t gen;   // caller payload (slab generation tag)
    bool operator>(const Entry& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  TimerWheel();

  // Requires e.time >= the time of every entry already popped and seq
  // strictly greater than every seq ever inserted (Simulation's monotonic
  // event counter provides both).
  void Insert(const Entry& e);

  // Pops the earliest (time, seq) entry into *out if its time is <= limit.
  // Returns false (leaving the store untouched) otherwise.
  bool PopNext(SimTime limit, Entry* out);

  // Time of the earliest entry, wheel or far heap, or kSimTimeMax when
  // empty. Stale (cancelled) entries count: the caller drops them only on
  // pop, so this is a lower bound on the next live event's time.
  SimTime PeekTime();

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr uint64_t kSlotsPerLevel = 64;
  static constexpr uint64_t kSlotMask = kSlotsPerLevel - 1;

  // Exact time of the earliest wheel-resident (non-heap) entry, or
  // kSimTimeMax. Clears a fully drained staging buffer as a side effect.
  SimTime WheelNextTime();
  // Moves base_ forward to t (the minimum remaining time), cascading the
  // slot that now shares a longer digit prefix with base at each level.
  void AdvanceTo(SimTime t);
  // Stages the level-0 slot for time t (== base_) into due_, seq-sorted.
  void Stage(SimTime t);
  void InsertSlotted(const Entry& e);

  std::vector<Entry> slots_[kLevels][kSlotsPerLevel];
  uint64_t bitmap_[kLevels] = {};  // bit s set <=> slots_[l][s] non-empty
  SimTime base_ = 0;
  size_t slotted_count_ = 0;  // entries in slots_ (excludes due_ and far_)
  size_t count_ = 0;          // all entries

  // The slot currently being fired: entries at time base_, sorted by seq,
  // consumed front to back. Same-time inserts while staged append here
  // (their seqs are larger than everything staged, so order is preserved).
  std::vector<Entry> due_;
  size_t due_pos_ = 0;
  bool staged_ = false;

  std::vector<Entry> scratch_;  // cascade staging buffer, capacity reused

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> far_;
};

}  // namespace easyio::sim

#endif  // EASYIO_SIM_TIMER_WHEEL_H_
