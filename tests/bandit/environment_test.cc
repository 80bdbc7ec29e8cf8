#include "bandit/environment.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "stats/summary.h"
#include "support/reference_truncated_gaussian.h"

namespace cdt {
namespace bandit {
namespace {

TEST(EnvironmentConfigTest, Validation) {
  EnvironmentConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_sellers = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.num_pois = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.observation_stddev = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.quality_lo = 0.5;
  config.quality_hi = 0.5;
  EXPECT_FALSE(config.Validate().ok());
  config = {};
  config.quality_hi = 1.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(QualityEnvironmentTest, GeneratedQualitiesRespectRange) {
  EnvironmentConfig config;
  config.num_sellers = 100;
  config.quality_lo = 0.2;
  config.quality_hi = 0.8;
  auto env = QualityEnvironment::Create(config);
  ASSERT_TRUE(env.ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(env.value().nominal_quality(i), 0.2);
    EXPECT_LE(env.value().nominal_quality(i), 0.8);
  }
}

TEST(QualityEnvironmentTest, ObservationsWithinUnitInterval) {
  auto env = QualityEnvironment::CreateWithQualities({0.1, 0.5, 0.95}, 8,
                                                     0.2, 11);
  ASSERT_TRUE(env.ok());
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) {
      for (double q : env.value().ObserveSeller(i)) {
        EXPECT_GE(q, 0.0);
        EXPECT_LE(q, 1.0);
      }
    }
  }
}

TEST(QualityEnvironmentTest, ObservationCountIsL) {
  auto env = QualityEnvironment::CreateWithQualities({0.5}, 10, 0.1, 1);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().ObserveSeller(0).size(), 10u);
}

TEST(QualityEnvironmentTest, EmpiricalMeanMatchesEffectiveQuality) {
  auto env = QualityEnvironment::CreateWithQualities({0.9}, 10, 0.3, 5);
  ASSERT_TRUE(env.ok());
  stats::RunningSummary summary;
  for (int i = 0; i < 5000; ++i) {
    for (double q : env.value().ObserveSeller(0)) summary.Add(q);
  }
  EXPECT_NEAR(summary.mean(), env.value().effective_quality(0), 0.01);
  // Truncation near the upper bound pulls the effective below nominal.
  EXPECT_LT(env.value().effective_quality(0),
            env.value().nominal_quality(0));
}

TEST(QualityEnvironmentTest, OptimalSetIsTopKByEffectiveQuality) {
  auto env = QualityEnvironment::CreateWithQualities(
      {0.3, 0.8, 0.5, 0.9, 0.1}, 4, 0.05, 2);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().OptimalSet(2), (std::vector<int>{3, 1}));
  EXPECT_NEAR(env.value().OptimalSetQuality(2),
              env.value().effective_quality(3) +
                  env.value().effective_quality(1),
              1e-12);

  // Many ties: 300 sellers over four quality levels. Ties rank by index,
  // as a stable sort of all M indices orders them, and the quality sum
  // adds the same values in the same order.
  stats::Xoshiro256 rng(0x71E5);
  const double levels[] = {0.2, 0.45, 0.7, 0.95};
  std::vector<double> qualities(300);
  for (double& q : qualities) q = levels[rng.NextBounded(4)];
  auto tied = QualityEnvironment::CreateWithQualities(qualities, 4, 0.05, 2);
  ASSERT_TRUE(tied.ok());
  std::vector<int> order(qualities.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return tied.value().effective_quality(a) >
           tied.value().effective_quality(b);
  });
  for (int k : {1, 7, 74, 75, 76, 150, 299, 300, 400}) {
    std::vector<int> want(
        order.begin(),
        order.begin() + std::min<std::size_t>(k, order.size()));
    EXPECT_EQ(tied.value().OptimalSet(k), want) << "k=" << k;
    double sum = 0.0;
    for (int i : want) sum += tied.value().effective_quality(i);
    EXPECT_EQ(tied.value().OptimalSetQuality(k), sum) << "k=" << k;
  }
}

TEST(QualityEnvironmentTest, RejectsBadExplicitQualities) {
  EXPECT_FALSE(
      QualityEnvironment::CreateWithQualities({}, 4, 0.1, 1).ok());
  EXPECT_FALSE(
      QualityEnvironment::CreateWithQualities({1.2}, 4, 0.1, 1).ok());
  EXPECT_FALSE(
      QualityEnvironment::CreateWithQualities({0.5}, 0, 0.1, 1).ok());
}

TEST(QualityEnvironmentTest, SameSeedSameQualities) {
  EnvironmentConfig config;
  config.num_sellers = 20;
  config.seed = 99;
  auto a = QualityEnvironment::Create(config);
  auto b = QualityEnvironment::Create(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.value().nominal_quality(i),
                     b.value().nominal_quality(i));
  }
}

// The batch draw against its oracle, per-seller ObserveSellerInto on a copy
// of the environment: the same values bit for bit, and the same RNG words
// and Box–Muller spares after every round. An odd L leaves a spare cached
// across rounds, an even L may not; L=1 alternates it on every call.
TEST(QualityEnvironmentTest, BatchDrawMatchesPerSellerDraws) {
  for (int pois : {1, 3, 10}) {
    EnvironmentConfig config;
    config.num_sellers = 200;
    config.num_pois = pois;
    config.seed = 77 + static_cast<std::uint64_t>(pois);
    auto created = QualityEnvironment::Create(config);
    ASSERT_TRUE(created.ok());
    QualityEnvironment batched = created.value();
    QualityEnvironment oracle = created.value();
    stats::Xoshiro256 rng(static_cast<std::uint64_t>(pois));
    std::vector<int> ids(static_cast<std::size_t>(config.num_sellers));
    std::iota(ids.begin(), ids.end(), 0);
    std::vector<std::vector<double>> rows;
    std::vector<double> one;
    for (int round = 0; round < 60; ++round) {
      // A random coalition in random order; every tenth round repeats a
      // member, so a sampler's spare also chains within one batch.
      for (std::size_t i = ids.size() - 1; i > 0; --i) {
        std::swap(ids[i], ids[rng.Next() % (i + 1)]);
      }
      std::vector<int> coalition(
          ids.begin(), ids.begin() + 1 + static_cast<long>(rng.Next() % 60));
      if (round % 10 == 9) coalition.push_back(coalition.front());
      const std::size_t kept = rows.size();
      batched.ObserveSellersInto(coalition, &rows);
      // Rows past the coalition survive for later rounds.
      ASSERT_EQ(rows.size(), std::max(kept, coalition.size()));
      for (std::size_t j = 0; j < coalition.size(); ++j) {
        oracle.ObserveSellerInto(coalition[j], &one);
        ASSERT_EQ(rows[j], one)
            << "L=" << pois << " round " << round << " member " << j;
      }
      const EnvironmentState a = batched.SaveState();
      const EnvironmentState b = oracle.SaveState();
      ASSERT_EQ(a.rng_state, b.rng_state) << "L=" << pois;
      ASSERT_EQ(a.has_spare, b.has_spare) << "L=" << pois;
      ASSERT_EQ(a.spare, b.spare) << "L=" << pois;
    }
  }
}

// The environment keeps one 16-byte Box–Muller spare cache per seller and
// truncates with its shared stddev and [0, 1] window. Against the 48-byte
// per-seller sampler it replaced (the oracle in tests/support) every draw
// must match bit for bit, and so must the RNG words and every seller's
// spare afterwards: over a million draws with nominal qualities at the
// window's edges (0 and 1, where half the draws are rejected), and with a
// noise so wide that draws end in the 256-reject clamp.
TEST(QualityEnvironmentTest, DrawsMatchThePerSellerSamplerOracle) {
  struct Case {
    std::vector<double> qualities;
    double stddev;
    int pois;
    int rounds;
  };
  std::vector<double> spread = {0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9};
  stats::Xoshiro256 picker(0xD1CE);
  while (spread.size() < 200) spread.push_back(picker.NextDouble());
  const std::vector<Case> cases = {
      {spread, 0.1, 10, 500},           // 10^6 draws
      {spread, 0.8, 3, 100},            // wide noise, odd L
      {{0.0, 0.3, 1.0}, 1e6, 10, 100},  // the clamp
  };
  std::uint64_t seed = 41;
  for (const Case& c : cases) {
    auto created =
        QualityEnvironment::CreateWithQualities(c.qualities, c.pois, c.stddev,
                                                ++seed);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    QualityEnvironment& env = created.value();
    stats::Xoshiro256 rng(seed);
    std::vector<testsupport::TruncatedGaussianSampler> oracle;
    for (double q : c.qualities) {
      auto sampler =
          testsupport::TruncatedGaussianSampler::Create(q, c.stddev, 0.0, 1.0);
      ASSERT_TRUE(sampler.ok());
      oracle.push_back(sampler.value());
    }
    std::vector<int> order(c.qualities.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::vector<double>> rows;
    std::int64_t draws = 0, mismatches = 0, clamped = 0;
    for (int round = 0; round < c.rounds; ++round) {
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[picker.Next() % (i + 1)]);
      }
      env.ObserveSellersInto(order, &rows);
      for (std::size_t j = 0; j < order.size(); ++j) {
        const std::size_t seller = static_cast<std::size_t>(order[j]);
        for (double got : rows[j]) {
          const double want = oracle[seller].Sample(rng);
          if (std::memcmp(&got, &want, sizeof got) != 0 && mismatches++ == 0) {
            ADD_FAILURE() << "stddev " << c.stddev << " round " << round
                          << " seller " << seller << ": " << got << " vs "
                          << want;
          }
          if (got == c.qualities[seller] && c.stddev > 1.0) ++clamped;
          ++draws;
        }
      }
    }
    EXPECT_EQ(mismatches, 0);
    if (c.rounds == 500) EXPECT_GE(draws, 1000000);
    if (c.stddev > 1.0) EXPECT_GT(clamped, draws / 2);
    const EnvironmentState state = env.SaveState();
    EXPECT_EQ(state.rng_state, rng.state());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(state.has_spare[i] != 0, oracle[i].gaussian().has_spare())
          << "seller " << i;
      ASSERT_EQ(state.spare[i], oracle[i].gaussian().spare()) << "seller " << i;
    }
  }
}

TEST(QualityEnvironmentTest, PrefetchLeavesStateAlone) {
  auto env = QualityEnvironment::CreateWithQualities({0.2, 0.7}, 3, 0.1, 5);
  ASSERT_TRUE(env.ok());
  const EnvironmentState before = env.value().SaveState();
  for (int seller : {0, 1, -1, 2, 1 << 30}) env.value().PrefetchSeller(seller);
  const EnvironmentState after = env.value().SaveState();
  EXPECT_EQ(before.rng_state, after.rng_state);
  EXPECT_EQ(before.has_spare, after.has_spare);
  EXPECT_EQ(before.spare, after.spare);
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
