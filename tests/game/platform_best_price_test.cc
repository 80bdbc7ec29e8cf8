// Differential fuzz of the stage-2 best response: StackelbergSolver's
// sweep over its segment table against the naive per-segment sweep
// (testsupport::ReferenceStackelberg), bit for bit, at coalition sizes
// from 1 to 1000 and at the consumer prices where rounding decides the
// winner: window edges, regime-switch crossings, per-segment Theorem-16
// points and crossings of the endpoint lines, each with its
// ±1-ulp neighbours. Stage 1's regime walk rides on the same games: its
// price must do at least as well as two oracles, the heuristic search it
// replaced and a dense grid.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "game/stackelberg.h"
#include "stats/rng.h"
#include "support/generators.h"
#include "support/reference_stackelberg.h"

namespace cdt {
namespace game {
namespace {

using testsupport::ReferenceStackelberg;

std::uint64_t Bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

enum class Family { kPlain, kDuplicates, kUlpApart, kTightT, kClippingBoxes };

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kPlain: return "plain";
    case Family::kDuplicates: return "duplicates";
    case Family::kUlpApart: return "ulp_apart";
    case Family::kTightT: return "tight_T";
    case Family::kClippingBoxes: return "clipping_boxes";
  }
  return "?";
}

GameConfig MakeConfig(Family family, int k, std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  GameConfig config;
  config.platform = {rng.NextDouble(0.01, 1.0), rng.NextDouble(0.0, 2.0)};
  config.valuation = {rng.NextDouble(50.0, 5000.0)};
  config.collection_price_bounds = {0.01, 1000.0};
  config.consumer_price_bounds = {0.01, 1000.0};
  while (static_cast<int>(config.sellers.size()) < k) {
    SellerCostParams s{rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)};
    double q = rng.NextDouble(0.1, 1.0);
    config.sellers.push_back(s);
    config.qualities.push_back(q);
    if (static_cast<int>(config.sellers.size()) == k) break;
    if (family == Family::kDuplicates) {
      config.sellers.push_back(s);  // exact twin: coinciding kinks
      config.qualities.push_back(q);
    } else if (family == Family::kUlpApart) {
      // A twin 1 ulp apart in b or in q̄: kinks one ulp apart, so two
      // nearly identical endpoint lines.
      if (rng.NextDouble() < 0.5) {
        s.b = std::nextafter(s.b, 2.0);
      } else {
        q = std::nextafter(q, 0.0);
      }
      config.sellers.push_back(s);
      config.qualities.push_back(q);
    }
  }
  if (family == Family::kTightT) {
    // Saturation kinks inside the box and flat segments between them.
    config.max_sensing_time = rng.NextDouble(0.05, 0.5);
  }
  if (family == Family::kClippingBoxes) {
    // Boxes that cut through the kinks: activation prices q̄·b lie in
    // (0.01, 1), so this collection box clips some of them.
    config.collection_price_bounds = {rng.NextDouble(0.05, 0.4),
                                      rng.NextDouble(0.6, 3.0)};
    config.consumer_price_bounds = {rng.NextDouble(0.5, 5.0),
                                    rng.NextDouble(10.0, 80.0)};
    config.max_sensing_time = rng.NextDouble(0.5, 5.0);
  }
  return config;
}

// Endpoint line j of the sweep, with the segment table's expressions.
struct Line {
  double slope;
  double intercept;
};

std::vector<double> QueryPoints(const ReferenceStackelberg& ref) {
  const GameConfig& config = ref.config();
  const util::Interval& xbox = config.consumer_price_bounds;
  const util::Interval& pbox = config.collection_price_bounds;
  const double theta = config.platform.theta;
  const double lambda = config.platform.lambda;
  const double omega = config.valuation.omega;
  const std::vector<ReferenceStackelberg::Kink>& kinks = ref.kinks();
  double qbar = 0.0;
  for (double q : config.qualities) qbar += q;
  qbar /= static_cast<double>(config.qualities.size());

  std::vector<double> base;
  base.push_back(xbox.lo);
  base.push_back(xbox.hi);
  for (int i = 1; i < 257; ++i) {
    base.push_back(xbox.lo + xbox.width() * i / 257.0);
  }
  std::vector<Line> lines;
  // Where the platform's optimum sits pinned at a kink (between one
  // segment's window and the next one's), the two endpoint lines meeting
  // there decide the answer; near-identical lines (twins 1 ulp apart)
  // compare by rounding noise, so sample the whole stretch.
  double pinned_from = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t j = 0; j < kinks.size(); ++j) {
    const ReferenceStackelberg::Kink& k = kinks[j];
    const double seg_lo = k.price;
    const double seg_hi = j + 1 < kinks.size() ? kinks[j + 1].price : pbox.hi;
    double s = k.a * seg_hi - k.b + k.c;
    if (s < 0.0) s = 0.0;
    lines.push_back({s, -(seg_hi * s + theta * s * s + lambda * s)});
    if (!(k.a > 0.0)) continue;
    const double b_eff = k.b - k.c;
    const double c = lambda * k.a - 2.0 * theta * k.a * b_eff - b_eff;
    // Window edges: p*_j(x) = (x·a − c)/denom at the segment ends.
    const double denom = 2.0 * k.a * (1.0 + theta * k.a);
    const double window_lo = (seg_lo * denom + c) / k.a;
    const double window_hi = (seg_hi * denom + c) / k.a;
    base.push_back(window_lo);
    base.push_back(window_hi);
    if (pinned_from < window_lo) {
      for (int i = 1; i < 8; ++i) {
        base.push_back(pinned_from + (window_lo - pinned_from) * i / 8.0);
      }
    }
    pinned_from = window_hi;
    // Stage 1's regime-switch crossings and Theorem-16 point.
    const double denom1 = 2.0 * (1.0 + theta * k.a);
    base.push_back(denom1 * seg_lo + c / k.a);
    base.push_back(denom1 * seg_hi + c / k.a);
    const double theta_c = k.a / denom1;
    const double lambda_c = c / denom1 + b_eff;
    const double tt = qbar * lambda_c - 2.0;
    const double dd = tt * tt + 8.0 * theta_c * omega * qbar * qbar;
    base.push_back((3.0 * qbar * lambda_c + std::sqrt(dd) - 2.0) /
                   (4.0 * qbar * theta_c));
  }
  // Crossings of nearby endpoint lines and of each line with the box.lo
  // candidate, in long double.
  {
    const ReferenceStackelberg::Kink& k0 = kinks.front();
    double s0 = k0.a * pbox.lo - k0.b + k0.c;
    if (s0 < 0.0) s0 = 0.0;
    lines.push_back({s0, -(pbox.lo * s0 + theta * s0 * s0 + lambda * s0)});
  }
  auto crossing = [&](const Line& x, const Line& y) {
    const long double ds = static_cast<long double>(y.slope) - x.slope;
    if (ds == 0.0L) return;
    base.push_back(static_cast<double>(
        (static_cast<long double>(x.intercept) - y.intercept) / ds));
  };
  const std::size_t n = lines.size() - 1;
  for (std::size_t j = 0; j < n; ++j) {
    if (j + 1 < n) crossing(lines[j], lines[j + 1]);
    if (j + 2 < n) crossing(lines[j], lines[j + 2]);
    crossing(lines[j], lines[n]);
  }

  std::vector<double> points;
  for (double x : base) {
    if (!std::isfinite(x)) continue;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    points.push_back(x);
    points.push_back(std::nextafter(x, -kInf));
    points.push_back(std::nextafter(x, kInf));
  }
  return points;
}

// Bit-compares PlatformBestPrice at every point; reports the first misses.
void ExpectBitEqual(const StackelbergSolver& solver,
                    const ReferenceStackelberg& ref,
                    const std::vector<double>& points,
                    const std::string& label) {
  int misses = 0;
  std::ostringstream first;
  first.precision(17);
  for (double x : points) {
    const double got = solver.PlatformBestPrice(x);
    const double want = ref.PlatformBestPrice(x);
    if (Bits(got) != Bits(want)) {
      if (misses < 5) {
        first << "\n  pJ=" << x << " got " << got << " want " << want;
      }
      ++misses;
    }
  }
  EXPECT_EQ(misses, 0) << label << " (" << points.size() << " points)"
                       << first.str();
}

// Stage 1 against its oracles. The walk's price must attain, within
// 1e-9·max(1, |F|), at least the heuristic search's profit
// (ReferenceStackelberg::ConsumerBestPrice, valued on the reference's own
// sweep) and the best of a `grid`-point grid over the consumer box; its
// supremum must bound every grid value and be attained by its price.
void ExpectStage1BeatsOracles(const StackelbergSolver& solver,
                              const ReferenceStackelberg& ref, int grid,
                              const std::string& label) {
  const double pj = solver.ConsumerBestPrice();
  const double f = solver.ConsumerProfitAnticipating(pj);
  const double tol = 1e-9 * std::max(1.0, std::fabs(f));
  const double heuristic =
      ref.ConsumerProfitAnticipating(ref.ConsumerBestPrice());
  EXPECT_GE(f, heuristic - tol) << label << " pJ=" << pj;
  const util::Interval& box = solver.config().consumer_price_bounds;
  double grid_best = -std::numeric_limits<double>::infinity();
  double grid_at = box.lo;
  for (int i = 0; i <= grid; ++i) {
    const double x = box.lo + box.width() * i / grid;
    const double v = solver.ConsumerProfitAnticipating(x);
    if (v > grid_best) {
      grid_best = v;
      grid_at = x;
    }
  }
  EXPECT_GE(f, grid_best - tol)
      << label << " pJ=" << pj << " grid best at " << grid_at;
  const double sup = solver.ConsumerProfitSupremum().profit;
  EXPECT_LE(grid_best, sup + tol) << label << " grid best at " << grid_at;
  EXPECT_GE(f, sup - tol) << label << " pJ=" << pj;
}

TEST(PlatformBestPriceOracleTest, RandomGameConfigsBitEqual) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    stats::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL);
    GameConfig config = testsupport::RandomGameConfig(rng);
    auto solver = StackelbergSolver::Create(config);
    ASSERT_TRUE(solver.ok());
    ReferenceStackelberg ref(config);
    ExpectBitEqual(solver.value(), ref, QueryPoints(ref),
                   "RandomGameConfig seed " + std::to_string(seed));
  }
}

// Stage 1 on RandomGameConfig games (the seeding above, 3,000 seeds).
TEST(ConsumerBestPriceOracleTest, RandomGameConfigsBeatOracles) {
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    stats::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL);
    GameConfig config = testsupport::RandomGameConfig(rng);
    auto solver = StackelbergSolver::Create(config);
    ASSERT_TRUE(solver.ok());
    ExpectStage1BeatsOracles(solver.value(), ReferenceStackelberg(config),
                             2000, "seed " + std::to_string(seed));
  }
}

class PlatformBestPriceScaleTest
    : public ::testing::TestWithParam<std::tuple<int, Family>> {};

TEST_P(PlatformBestPriceScaleTest, BitEqualOnAdversarialPoints) {
  const auto [k, family] = GetParam();
  const int seeds = k >= 1000 ? 1 : (k >= 316 ? 2 : 32);
  for (int seed = 1; seed <= seeds; ++seed) {
    GameConfig config =
        MakeConfig(family, k, 1000 * static_cast<std::uint64_t>(k) + seed);
    auto solver = StackelbergSolver::Create(config);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();
    ReferenceStackelberg ref(config);
    const std::string label = std::string(FamilyName(family)) + " K=" +
                              std::to_string(k) + " seed " +
                              std::to_string(seed);
    ExpectBitEqual(solver.value(), ref, QueryPoints(ref), label);
    ExpectStage1BeatsOracles(solver.value(), ref, 4000, label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PlatformBestPriceScaleTest,
    ::testing::Combine(::testing::Values(1, 2, 10, 60, 316, 1000),
                       ::testing::Values(Family::kPlain, Family::kDuplicates,
                                         Family::kUlpApart, Family::kTightT,
                                         Family::kClippingBoxes)),
    [](const ::testing::TestParamInfo<std::tuple<int, Family>>& info) {
      return std::string(FamilyName(std::get<1>(info.param))) + "_K" +
             std::to_string(std::get<0>(info.param));
    });

// One solver re-targeted through ResetCoalition answers exactly like a
// fresh Create of the same coalition (and like the oracle), across drifting
// qualities, size changes and twin sellers.
TEST(PlatformBestPriceOracleTest, ResetCoalitionMatchesFreshCreate) {
  for (int k : {10, 316}) {
    GameConfig base = MakeConfig(Family::kPlain, k, 77 + k);
    auto reused = StackelbergSolver::Create(base);
    ASSERT_TRUE(reused.ok());
    stats::Xoshiro256 rng(5 + k);
    std::vector<SellerCostParams> sellers;
    std::vector<double> qualities;
    for (int round = 0; round < 24; ++round) {
      GameConfig next = base;
      // Drift every quality a little; every few rounds drop a seller or
      // twin one, so the event count changes.
      for (double& q : next.qualities) {
        q = std::min(1.0, std::max(0.05, q + rng.NextDouble(-0.02, 0.02)));
      }
      if (round % 5 == 3) {
        next.sellers.pop_back();
        next.qualities.pop_back();
      } else if (round % 5 == 4) {
        next.sellers.back() = next.sellers.front();
        next.qualities.back() = next.qualities.front();
      }
      sellers = next.sellers;
      qualities = next.qualities;
      ASSERT_TRUE(reused.value().ResetCoalition(&sellers, &qualities).ok());
      auto fresh = StackelbergSolver::Create(next);
      ASSERT_TRUE(fresh.ok());
      ReferenceStackelberg ref(next);
      const std::string label =
          "K=" + std::to_string(k) + " round " + std::to_string(round);
      const std::vector<double> points = QueryPoints(ref);
      ExpectBitEqual(reused.value(), ref, points, label + " (reset)");
      ExpectBitEqual(fresh.value(), ref, points, label + " (fresh)");
      EXPECT_EQ(Bits(reused.value().ConsumerBestPrice()),
                Bits(fresh.value().ConsumerBestPrice()))
          << label;
      base = next;
    }
  }
}

}  // namespace
}  // namespace game
}  // namespace cdt
