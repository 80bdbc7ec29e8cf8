#include "stats/distributions.h"

#include <algorithm>
#include <cmath>

namespace cdt {
namespace stats {

using util::Result;
using util::Status;

double GaussianSampler::Sample(Xoshiro256& rng, double mean, double stddev) {
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_;
  }
  double u, v, s;
  do {
    u = rng.NextDouble(-1.0, 1.0);
    v = rng.NextDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return mean + stddev * (u * factor);
}

Result<ZipfSampler> ZipfSampler::Create(std::size_t n, double exponent) {
  if (n == 0) {
    return Status::InvalidArgument("Zipf requires n >= 1");
  }
  if (exponent < 0.0) {
    return Status::InvalidArgument("Zipf exponent must be >= 0");
  }
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return ZipfSampler(std::move(cdf));
}

std::size_t ZipfSampler::Sample(Xoshiro256& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

double NormalPdf(double x) {
  constexpr double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double NormalCdf(double x) {
  return 0.5 * std::erfc(-x * 0.7071067811865476);
}

double TruncatedGaussianMean(double mean, double stddev, double lo,
                             double hi) {
  double alpha = (lo - mean) / stddev;
  double beta = (hi - mean) / stddev;
  double z = NormalCdf(beta) - NormalCdf(alpha);
  if (z <= 1e-300) {
    // Essentially no mass inside the window; the rejection sampler would
    // clamp, so report the clamped mean.
    return std::min(hi, std::max(lo, mean));
  }
  return mean + stddev * (NormalPdf(alpha) - NormalPdf(beta)) / z;
}

}  // namespace stats
}  // namespace cdt
