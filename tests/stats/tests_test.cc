#include "support/stats_tests.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace cdt {
namespace stats {
namespace {

using testsupport::ChiSquareGoodnessOfFit;
using testsupport::ChiSquareSurvival;
using testsupport::KolmogorovSmirnovPValue;
using testsupport::KolmogorovSmirnovStatistic;
using testsupport::RegularizedGammaP;

TEST(RegularizedGammaPTest, KnownValues) {
  // P(1, x) = 1 − e^{−x}.
  EXPECT_NEAR(RegularizedGammaP(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(RegularizedGammaP(1.0, 5.0), 1.0 - std::exp(-5.0), 1e-12);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(RegularizedGammaP(0.5, 2.0), std::erf(std::sqrt(2.0)), 1e-10);
  EXPECT_DOUBLE_EQ(RegularizedGammaP(3.0, 0.0), 0.0);
}

TEST(ChiSquareSurvivalTest, KnownQuantiles) {
  // Classic table values: P[X >= 3.841 | k=1] = 0.05.
  EXPECT_NEAR(ChiSquareSurvival(3.841, 1), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquareSurvival(5.991, 2), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquareSurvival(16.919, 9), 0.05, 1e-3);
  EXPECT_DOUBLE_EQ(ChiSquareSurvival(0.0, 5), 1.0);
}

TEST(ChiSquareGofTest, Validation) {
  EXPECT_FALSE(ChiSquareGoodnessOfFit({1, 2}, {0.5}).ok());
  EXPECT_FALSE(ChiSquareGoodnessOfFit({1}, {1.0}).ok());
  EXPECT_FALSE(ChiSquareGoodnessOfFit({1, 2}, {0.5, 0.0}).ok());
  EXPECT_FALSE(ChiSquareGoodnessOfFit({0, 0}, {0.5, 0.5}).ok());
}

TEST(ChiSquareGofTest, PerfectFitHasZeroStatistic) {
  auto result = ChiSquareGoodnessOfFit({250, 250, 250, 250},
                                       {0.25, 0.25, 0.25, 0.25});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().statistic, 0.0, 1e-12);
  EXPECT_EQ(result.value().degrees_of_freedom, 3);
  EXPECT_NEAR(result.value().p_value, 1.0, 1e-12);
}

TEST(ChiSquareGofTest, UniformRngPassesAtFivePercent) {
  Xoshiro256 rng(321);
  std::vector<std::uint64_t> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.NextBounded(10)];
  auto result =
      ChiSquareGoodnessOfFit(counts, std::vector<double>(10, 0.1));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().p_value, 0.01);
}

TEST(ChiSquareGofTest, SkewedCountsRejected) {
  auto result = ChiSquareGoodnessOfFit({900, 50, 50},
                                       {1.0 / 3, 1.0 / 3, 1.0 / 3});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().p_value, 1e-6);
}

TEST(KsStatisticTest, Validation) {
  EXPECT_FALSE(
      KolmogorovSmirnovStatistic({}, [](double x) { return x; }).ok());
}

TEST(KsStatisticTest, UniformSamplesAgainstUniformCdf) {
  Xoshiro256 rng(77);
  std::vector<double> samples(5000);
  for (double& x : samples) x = rng.NextDouble();
  auto d = KolmogorovSmirnovStatistic(
      samples, [](double x) { return std::min(1.0, std::max(0.0, x)); });
  ASSERT_TRUE(d.ok());
  EXPECT_LT(d.value(), 0.03);  // well below any rejection threshold
  EXPECT_GT(KolmogorovSmirnovPValue(d.value(), samples.size()), 0.01);
}

TEST(KsStatisticTest, WrongDistributionRejected) {
  // Squared uniforms vs the uniform CDF.
  Xoshiro256 rng(78);
  std::vector<double> samples(2000);
  for (double& x : samples) {
    double u = rng.NextDouble();
    x = u * u;
  }
  auto d = KolmogorovSmirnovStatistic(
      samples, [](double x) { return std::min(1.0, std::max(0.0, x)); });
  ASSERT_TRUE(d.ok());
  EXPECT_GT(d.value(), 0.2);
  EXPECT_LT(KolmogorovSmirnovPValue(d.value(), samples.size()), 1e-6);
}

TEST(KsStatisticTest, GaussianSamplerMatchesNormalCdf) {
  Xoshiro256 rng(79);
  GaussianSampler sampler;
  std::vector<double> samples(5000);
  for (double& x : samples) x = sampler.Sample(rng);
  auto d = KolmogorovSmirnovStatistic(samples, NormalCdf);
  ASSERT_TRUE(d.ok());
  EXPECT_GT(KolmogorovSmirnovPValue(d.value(), samples.size()), 0.01);
}

TEST(KsPValueTest, Monotonicity) {
  EXPECT_GT(KolmogorovSmirnovPValue(0.01, 1000),
            KolmogorovSmirnovPValue(0.05, 1000));
  EXPECT_DOUBLE_EQ(KolmogorovSmirnovPValue(0.0, 100), 1.0);
}

}  // namespace
}  // namespace stats
}  // namespace cdt
