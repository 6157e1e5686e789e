// Deterministic pseudo-random number generation for workloads and models.
//
// All stochastic behaviour in the simulator (workload key choice, Poisson
// arrivals, crash-point sampling) flows through Rng instances seeded from the
// experiment configuration, so every run is exactly reproducible.

#ifndef EASYIO_COMMON_RNG_H_
#define EASYIO_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace easyio {

// xoshiro256** — fast, high-quality, tiny state.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 expansion of the seed into the four state words.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

  // Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }

  // Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * (1.0 / (1ull << 53)); }

  // Exponentially distributed inter-arrival gap with the given mean
  // (Poisson process helper for the open-loop web-server client).
  double NextExponential(double mean) {
    double u = NextDouble();
    if (u <= 0.0) {
      u = 1e-18;
    }
    return -mean * std::log(u);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace easyio

#endif  // EASYIO_COMMON_RNG_H_
