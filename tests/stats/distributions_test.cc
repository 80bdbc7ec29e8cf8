#include "stats/distributions.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/summary.h"
#include "support/reference_truncated_gaussian.h"

namespace cdt {
namespace stats {
namespace {

using testsupport::TruncatedGaussianSampler;

TEST(GaussianSamplerTest, MatchesRequestedMoments) {
  Xoshiro256 rng(17);
  GaussianSampler sampler;
  RunningSummary summary;
  for (int i = 0; i < 200000; ++i) {
    summary.Add(sampler.Sample(rng, 2.0, 3.0));
  }
  EXPECT_NEAR(summary.mean(), 2.0, 0.03);
  EXPECT_NEAR(summary.stddev(), 3.0, 0.03);
}

TEST(GaussianSamplerTest, SpareValueIsDeterministic) {
  Xoshiro256 rng_a(5), rng_b(5);
  GaussianSampler a, b;
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Sample(rng_a), b.Sample(rng_b));
  }
}

TEST(TruncatedGaussianTest, RejectsBadParameters) {
  EXPECT_FALSE(TruncatedGaussianSampler::Create(0.5, 0.0, 0.0, 1.0).ok());
  EXPECT_FALSE(TruncatedGaussianSampler::Create(0.5, 0.1, 1.0, 1.0).ok());
  EXPECT_FALSE(TruncatedGaussianSampler::Create(0.5, 0.1, 2.0, 1.0).ok());
}

TEST(TruncatedGaussianTest, SamplesStayInWindow) {
  auto sampler = TruncatedGaussianSampler::Create(0.9, 0.3, 0.0, 1.0);
  ASSERT_TRUE(sampler.ok());
  Xoshiro256 rng(23);
  for (int i = 0; i < 50000; ++i) {
    double x = sampler.value().Sample(rng);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(TruncatedGaussianTest, EmpiricalMeanMatchesAnalyticMean) {
  // Property: sampled mean converges to the analytic truncated mean for a
  // range of centre/width combinations, including asymmetric truncation.
  struct Case {
    double mean, stddev;
  };
  for (const Case& c : {Case{0.5, 0.1}, Case{0.05, 0.2}, Case{0.95, 0.3},
                        Case{0.0, 0.5}, Case{1.0, 0.15}}) {
    auto sampler = TruncatedGaussianSampler::Create(c.mean, c.stddev, 0, 1);
    ASSERT_TRUE(sampler.ok());
    Xoshiro256 rng(31);
    RunningSummary summary;
    for (int i = 0; i < 100000; ++i) {
      summary.Add(sampler.value().Sample(rng));
    }
    double analytic = TruncatedGaussianMean(c.mean, c.stddev, 0.0, 1.0);
    EXPECT_NEAR(summary.mean(), analytic, 0.01)
        << "mean=" << c.mean << " stddev=" << c.stddev;
  }
}

TEST(TruncatedGaussianTest, DegenerateFarMeanClampsInsteadOfHanging) {
  auto sampler = TruncatedGaussianSampler::Create(50.0, 0.01, 0.0, 1.0);
  ASSERT_TRUE(sampler.ok());
  Xoshiro256 rng(7);
  double x = sampler.value().Sample(rng);
  EXPECT_DOUBLE_EQ(x, 1.0);  // clamped mean
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(NormalPdfTest, PeakAtZero) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_GT(NormalPdf(0.0), NormalPdf(0.5));
  EXPECT_NEAR(NormalPdf(3.0), NormalPdf(-3.0), 1e-15);
}

TEST(TruncatedGaussianMeanTest, SymmetricTruncationKeepsMean) {
  EXPECT_NEAR(TruncatedGaussianMean(0.5, 0.1, 0.0, 1.0), 0.5, 1e-9);
}

TEST(TruncatedGaussianMeanTest, AsymmetricTruncationShiftsInward) {
  // Centre near the upper bound: truncation pulls the mean below 0.95.
  double m = TruncatedGaussianMean(0.95, 0.3, 0.0, 1.0);
  EXPECT_LT(m, 0.95);
  EXPECT_GT(m, 0.0);
  // Centre near the lower bound: pulled upward.
  double m2 = TruncatedGaussianMean(0.05, 0.3, 0.0, 1.0);
  EXPECT_GT(m2, 0.05);
}

TEST(ZipfSamplerTest, RejectsBadParameters) {
  EXPECT_FALSE(ZipfSampler::Create(0, 1.0).ok());
  EXPECT_FALSE(ZipfSampler::Create(5, -0.1).ok());
}

TEST(ZipfSamplerTest, RankZeroIsMostPopular) {
  auto sampler = ZipfSampler::Create(20, 1.2);
  ASSERT_TRUE(sampler.ok());
  Xoshiro256 rng(3);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[sampler.value().Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[5], counts[19]);
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  auto sampler = ZipfSampler::Create(4, 0.0);
  ASSERT_TRUE(sampler.ok());
  Xoshiro256 rng(9);
  std::vector<int> counts(4, 0);
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.value().Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 4, kDraws / 50);
}

}  // namespace
}  // namespace stats
}  // namespace cdt
