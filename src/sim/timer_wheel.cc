#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <cassert>

namespace easyio::sim {

namespace {
// Bits of absolute time above position kBits*level that a resident of
// `level` must share with base (the level's enclosing window).
constexpr uint64_t Prefix(SimTime t, int level) {
  return t >> (6 * (level + 1));
}
constexpr uint64_t Digit(SimTime t, int level) {
  return (t >> (6 * level)) & 63;
}
}  // namespace

TimerWheel::TimerWheel() {
  // Slot buffers, due_ and scratch_ trade storage via swap, so pre-reserving
  // every member of the family keeps the steady state allocation-free: as
  // virtual time crosses slot boundaries, a first touch of a fresh slot
  // would otherwise allocate mid-run (the hot-loop allocation tests fail on
  // exactly that).
  constexpr size_t kInitialSlotCapacity = 8;
  for (auto& level : slots_) {
    for (auto& slot : level) {
      slot.reserve(kInitialSlotCapacity);
    }
  }
  due_.reserve(kInitialSlotCapacity);
  scratch_.reserve(kInitialSlotCapacity);
}

void TimerWheel::Insert(const Entry& e) {
  assert(e.time >= base_);
  count_++;
  if (staged_ && e.time == base_) {
    // The slot for base_ is mid-fire. The new entry's seq exceeds every seq
    // already in due_, so appending keeps the buffer seq-sorted.
    due_.push_back(e);
    return;
  }
  if (Prefix(e.time, kLevels - 1) == Prefix(base_, kLevels - 1)) {
    InsertSlotted(e);
  } else {
    far_.push(e);
  }
}

void TimerWheel::InsertSlotted(const Entry& e) {
  for (int l = 0; l < kLevels; ++l) {
    if (Prefix(e.time, l) == Prefix(base_, l)) {
      const uint64_t s = Digit(e.time, l);
      slots_[l][s].push_back(e);
      bitmap_[l] |= uint64_t{1} << s;
      slotted_count_++;
      return;
    }
  }
  assert(false && "InsertSlotted outside the level-3 window");
}

SimTime TimerWheel::WheelNextTime() {
  if (staged_) {
    if (due_pos_ < due_.size()) {
      return base_;
    }
    due_.clear();
    due_pos_ = 0;
    staged_ = false;
  }
  if (slotted_count_ == 0) {
    return kSimTimeMax;
  }
  // Every level-l resident's time exceeds every level-(l-1) resident's (its
  // level-(l-1) digit differs from base's, a lower level's matches), so the
  // first non-empty level holds the wheel minimum; within it, the lowest
  // occupied slot.
  for (int l = 0; l < kLevels; ++l) {
    if (bitmap_[l] == 0) {
      continue;
    }
    const uint64_t s =
        static_cast<uint64_t>(__builtin_ctzll(bitmap_[l]));
    if (l == 0) {
      // A level-0 slot holds exactly one time value.
      return (base_ & ~kSlotMask) | s;
    }
    SimTime min_time = kSimTimeMax;
    for (const Entry& e : slots_[l][s]) {
      min_time = std::min(min_time, e.time);
    }
    return min_time;
  }
  assert(false && "slotted_count_ != 0 but all bitmaps empty");
  return kSimTimeMax;
}

void TimerWheel::AdvanceTo(SimTime t) {
  assert(t >= base_);
  if (t == base_) {
    return;
  }
  assert(!staged_ && "cannot advance past a slot that is mid-fire");
  base_ = t;
  // t is the minimum remaining time, so every resident still satisfies its
  // level's window relative to the new base; only slot Digit(t, l) can hold
  // entries that now qualify for a lower level. Top-down order matters:
  // level 3 may re-home an entry into level 2's cascade slot, which the
  // level-2 iteration then picks up.
  for (int l = kLevels - 1; l >= 1; --l) {
    const uint64_t s = Digit(t, l);
    if ((bitmap_[l] & (uint64_t{1} << s)) == 0) {
      continue;
    }
    scratch_.clear();
    scratch_.swap(slots_[l][s]);
    bitmap_[l] &= ~(uint64_t{1} << s);
    slotted_count_ -= scratch_.size();
    for (const Entry& e : scratch_) {
      InsertSlotted(e);
    }
  }
}

void TimerWheel::Stage(SimTime t) {
  assert(t == base_);
  assert(!staged_);
  const uint64_t s = t & kSlotMask;
  assert((bitmap_[0] & (uint64_t{1} << s)) != 0);
  assert(due_.empty());
  due_.swap(slots_[0][s]);  // buffers ping-pong; no steady-state allocation
  bitmap_[0] &= ~(uint64_t{1} << s);
  slotted_count_ -= due_.size();
  // Entries are seq-ordered already unless a cascade interleaved them.
  std::sort(due_.begin(), due_.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  due_pos_ = 0;
  staged_ = true;
}

SimTime TimerWheel::PeekTime() {
  if (count_ == 0) {
    return kSimTimeMax;
  }
  const SimTime wheel_next = WheelNextTime();
  return far_.empty() ? wheel_next : std::min(wheel_next, far_.top().time);
}

bool TimerWheel::PopNext(SimTime limit, Entry* out) {
  if (count_ == 0) {
    return false;
  }
  const SimTime wheel_next = WheelNextTime();
  const SimTime far_next = far_.empty() ? kSimTimeMax : far_.top().time;
  if (far_next <= wheel_next) {
    // On a time tie the heap entry fires first: it was scheduled before base
    // entered its level-3 window, i.e. at a strictly earlier virtual time
    // than any same-time wheel entry, so its seq is strictly smaller.
    if (far_next > limit) {
      return false;
    }
    *out = far_.top();
    far_.pop();
    count_--;
    // Drag the wheel window along so future near-term inserts stay O(1)
    // instead of piling into the heap.
    AdvanceTo(far_next);
    return true;
  }
  if (wheel_next > limit) {
    return false;
  }
  if (!staged_) {
    AdvanceTo(wheel_next);
    Stage(wheel_next);
  }
  *out = due_[due_pos_++];
  count_--;
  return true;
}

}  // namespace easyio::sim
