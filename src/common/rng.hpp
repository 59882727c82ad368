// Deterministic pseudo-random number generation.
//
// Every stochastic component owns its own Rng seeded from the experiment
// seed, so simulations are exactly reproducible and components do not
// perturb each other's random streams.
#pragma once

#include <cstdint>

namespace hostnet {

/// SplitMix64; used to expand a single seed into stream seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** -- fast, high-quality, 64-bit PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) (bound > 0). Uses Lemire's method.
  std::uint64_t below(std::uint64_t bound) {
    const std::uint64_t x = next();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// True with probability `p`.
  bool chance(double p) { return uniform() < p; }

  /// Derive an independent seeded stream (for child components).
  Rng fork() { return Rng{next()}; }

  bool operator==(const Rng&) const = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace hostnet
