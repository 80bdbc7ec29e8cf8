// Deterministic, seedable pseudo-random number generation.
//
// We implement SplitMix64 (for seeding) and xoshiro256** (as the workhorse
// generator) instead of relying on <random> engines + distributions, whose
// outputs are not reproducible across standard-library implementations.
// Every simulation in this repository is exactly reproducible from a seed.

#ifndef CDT_STATS_RNG_H_
#define CDT_STATS_RNG_H_

#include <array>
#include <cstdint>

namespace cdt {
namespace stats {

/// SplitMix64: tiny generator used to expand a 64-bit seed into state for
/// larger generators. Reference: Steele, Lea & Flood (2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next();

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG (Blackman & Vigna, 2018).
/// Satisfies UniformRandomBitGenerator so it can also feed <random> if
/// ever needed, though the library's own samplers avoid that.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by running SplitMix64 on `seed`.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return Next(); }

  std::uint64_t Next();

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method
  /// with rejection).
  std::uint64_t NextBounded(std::uint64_t bound);

  const std::array<std::uint64_t, 4>& state() const { return state_; }

  /// Restores a previously captured state() — the snapshot/replay hook.
  /// The all-zero state is a fixed point of xoshiro and is rejected by the
  /// callers that deserialize persisted states.
  void set_state(const std::array<std::uint64_t, 4>& state) { state_ = state; }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace stats
}  // namespace cdt

#endif  // CDT_STATS_RNG_H_
