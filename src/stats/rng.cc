#include "stats/rng.h"

namespace cdt {
namespace stats {

namespace {
inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.Next();
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t Xoshiro256::Next() {
  std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Xoshiro256::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Xoshiro256::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Xoshiro256::NextBounded(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling over the largest multiple of `bound`.
  std::uint64_t threshold = (0ULL - bound) % bound;
  while (true) {
    std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace stats
}  // namespace cdt
