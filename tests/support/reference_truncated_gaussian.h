// The per-seller truncated-Gaussian sampler QualityEnvironment kept before
// its rows shrank to a bare Box–Muller spare cache: a 48-byte object
// holding its own mean, stddev and window. The test oracle for the
// environment's draws (environment_test compares the two draw for draw,
// RNG word for RNG word) and for the rejection-and-clamp rule itself
// (distributions_test).

#ifndef CDT_TESTS_SUPPORT_REFERENCE_TRUNCATED_GAUSSIAN_H_
#define CDT_TESTS_SUPPORT_REFERENCE_TRUNCATED_GAUSSIAN_H_

#include "stats/distributions.h"
#include "stats/rng.h"
#include "util/status.h"

namespace cdt {
namespace testsupport {

/// Gaussian truncated to [lo, hi] by rejection sampling. Falls back to
/// clamping the mean into the window after kMaxRejects misses (only
/// reachable for (mean, stddev) far outside the window).
class TruncatedGaussianSampler {
 public:
  /// Creates a sampler for N(mean, stddev^2) truncated to [lo, hi].
  /// Invalid bounds (lo >= hi) or stddev <= 0 are reported via Result.
  static util::Result<TruncatedGaussianSampler> Create(double mean,
                                                       double stddev,
                                                       double lo, double hi);

  double Sample(stats::Xoshiro256& rng);

  /// The internal Gaussian's spare cache.
  const stats::GaussianSampler& gaussian() const { return gaussian_; }

  static constexpr int kMaxRejects = 256;

 private:
  TruncatedGaussianSampler(double mean, double stddev, double lo, double hi)
      : mean_(mean), stddev_(stddev), lo_(lo), hi_(hi) {}

  double mean_;
  double stddev_;
  double lo_;
  double hi_;
  stats::GaussianSampler gaussian_;
};

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_TRUNCATED_GAUSSIAN_H_
