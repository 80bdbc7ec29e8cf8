// Goodness-of-fit helpers for the statistical tests of the samplers and the
// synthetic trace: Pearson chi-square against expected bin probabilities
// and the one-sample Kolmogorov–Smirnov statistic against an arbitrary CDF.

#ifndef CDT_TESTS_SUPPORT_STATS_TESTS_H_
#define CDT_TESTS_SUPPORT_STATS_TESTS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace testsupport {

/// Result of a chi-square goodness-of-fit computation.
struct ChiSquareResult {
  double statistic = 0.0;
  int degrees_of_freedom = 0;
  /// Upper-tail p-value (via the regularised incomplete gamma function).
  double p_value = 1.0;
};

/// Pearson chi-square of `observed` counts against `expected_probs`
/// (normalised internally). Requires matching sizes >= 2 and a positive
/// total count; expected bins must have positive probability.
util::Result<ChiSquareResult> ChiSquareGoodnessOfFit(
    const std::vector<std::uint64_t>& observed,
    const std::vector<double>& expected_probs);

/// Upper-tail probability of a chi-square distribution: P[X >= x] with k
/// degrees of freedom.
double ChiSquareSurvival(double x, int k);

/// One-sample Kolmogorov–Smirnov statistic D_n = sup |F_n(x) − F(x)| of
/// `samples` against the CDF `cdf`. Errors on empty input.
util::Result<double> KolmogorovSmirnovStatistic(
    std::vector<double> samples, const std::function<double(double)>& cdf);

/// Asymptotic KS p-value: P[D_n >= d] ≈ 2 Σ (−1)^{j−1} exp(−2 j² n d²).
double KolmogorovSmirnovPValue(double d, std::size_t n);

/// Regularised lower incomplete gamma P(a, x) (series/continued fraction),
/// the building block of ChiSquareSurvival. Domain: a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_STATS_TESTS_H_
