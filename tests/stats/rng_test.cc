#include "stats/rng.h"

#include <set>

#include <gtest/gtest.h>

namespace cdt {
namespace stats {
namespace {

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Xoshiro256Test, DeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro256Test, NextDoubleInUnitInterval) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256Test, NextDoubleRangeRespectsBounds) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Xoshiro256Test, NextBoundedCoversRangeWithoutBias) {
  Xoshiro256 rng(11);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 100);  // within 10% relative
  }
}

TEST(Xoshiro256Test, NextBoundedZeroIsZero) {
  Xoshiro256 rng(1);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(Xoshiro256Test, MeanOfUniformDrawsIsHalf) {
  Xoshiro256 rng(2024);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(Xoshiro256Test, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256::min() == 0);
  static_assert(Xoshiro256::max() == ~std::uint64_t{0});
  Xoshiro256 rng(1);
  EXPECT_GE(rng(), Xoshiro256::min());
}

}  // namespace
}  // namespace stats
}  // namespace cdt
