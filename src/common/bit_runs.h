// Word-at-a-time scans over a bitmap stored as 64-bit words (bit i lives in
// word i / 64 at position i % 64).

#ifndef EASYIO_COMMON_BIT_RUNS_H_
#define EASYIO_COMMON_BIT_RUNS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace easyio {

// Calls fn(first, end) for each maximal run [first, end) of set bits within
// bits [bit, end_bit) of `bits`, in ascending order.
template <typename Fn>
void ForEachRun(const uint64_t* bits, size_t bit, size_t end_bit, Fn fn) {
  while (bit < end_bit) {
    const uint64_t word = bits[bit / 64] >> (bit % 64);
    if (word == 0) {
      bit = (bit / 64 + 1) * 64;
      continue;
    }
    bit += static_cast<size_t>(std::countr_zero(word));
    if (bit >= end_bit) {
      break;
    }
    size_t run_end = bit;
    while (run_end < end_bit) {
      const size_t shift = run_end % 64;
      const auto ones =
          static_cast<size_t>(std::countr_one(bits[run_end / 64] >> shift));
      run_end += ones;
      if (shift + ones < 64) {
        break;
      }
    }
    run_end = std::min(run_end, end_bit);
    fn(bit, run_end);
    bit = run_end;
  }
}

}  // namespace easyio

#endif  // EASYIO_COMMON_BIT_RUNS_H_
