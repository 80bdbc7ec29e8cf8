#include "support/reference_truncated_gaussian.h"

#include <algorithm>

namespace cdt {
namespace testsupport {

util::Result<TruncatedGaussianSampler> TruncatedGaussianSampler::Create(
    double mean, double stddev, double lo, double hi) {
  if (stddev <= 0.0) {
    return util::Status::InvalidArgument(
        "truncated Gaussian requires stddev > 0");
  }
  if (lo >= hi) {
    return util::Status::InvalidArgument(
        "truncated Gaussian requires lo < hi");
  }
  return TruncatedGaussianSampler(mean, stddev, lo, hi);
}

double TruncatedGaussianSampler::Sample(stats::Xoshiro256& rng) {
  for (int attempt = 0; attempt < kMaxRejects; ++attempt) {
    double x = gaussian_.Sample(rng, mean_, stddev_);
    if (x >= lo_ && x <= hi_) return x;
  }
  // Degenerate parameterisation: clamp the mean into the window.
  return std::min(hi_, std::max(lo_, mean_));
}

}  // namespace testsupport
}  // namespace cdt
