// Deterministic pseudo-random number generation.
//
// The workload generators must be bit-reproducible across platforms and
// standard-library versions, so we ship our own xoshiro256** engine and
// our own distribution transforms instead of <random> distributions
// (whose output is implementation-defined).
#pragma once

#include <cstdint>

namespace pals {

/// xoshiro256** 1.0 by Blackman & Vigna, seeded through SplitMix64.
/// Satisfies UniformRandomBitGenerator.
class Rng {
public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive), unbiased via rejection.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

private:
  std::uint64_t s_[4];
};

}  // namespace pals
