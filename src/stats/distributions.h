// Samplers built on the deterministic RNG: Gaussian (Box–Muller; the
// quality environment truncates it to the paper's quality-observation
// noise model) and Zipf (zone popularity in the synthetic taxi trace).

#ifndef CDT_STATS_DISTRIBUTIONS_H_
#define CDT_STATS_DISTRIBUTIONS_H_

#include <cstddef>
#include <vector>

#include "stats/rng.h"
#include "util/status.h"

namespace cdt {
namespace stats {

/// Standard-normal draw via the polar Box–Muller transform. The spare value
/// is cached so consecutive calls consume RNG output deterministically.
class GaussianSampler {
 public:
  GaussianSampler() = default;

  /// One N(mean, stddev^2) draw.
  double Sample(Xoshiro256& rng, double mean = 0.0, double stddev = 1.0);

  /// Spare-cache accessors for snapshot/restore: the cached second
  /// Box–Muller draw is part of the deterministic stream, so persisted
  /// runs must save and restore it alongside the RNG state.
  bool has_spare() const { return has_spare_; }
  double spare() const { return spare_; }
  void set_spare(bool has_spare, double spare) {
    has_spare_ = has_spare;
    spare_ = spare;
  }
  /// The cache's fields in place, for a strided view over an array of
  /// samplers (a checkpoint encodes them without a copy).
  const bool* has_spare_field() const { return &has_spare_; }
  const double* spare_field() const { return &spare_; }

 private:
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Zipf(s) over ranks {0, ..., n-1}: P(rank k) ∝ 1/(k+1)^s. Sampled via the
/// precomputed CDF; used to skew synthetic-trace zone popularity.
class ZipfSampler {
 public:
  static util::Result<ZipfSampler> Create(std::size_t n, double exponent);

  std::size_t Sample(Xoshiro256& rng) const;

  const std::vector<double>& cdf() const { return cdf_; }

 private:
  explicit ZipfSampler(std::vector<double> cdf) : cdf_(std::move(cdf)) {}

  std::vector<double> cdf_;
};

/// Standard normal pdf / cdf.
double NormalPdf(double x);
double NormalCdf(double x);

/// Analytic mean of N(mean, stddev^2) truncated to [lo, hi]. This is the
/// *effective* expected quality of a seller whose observations are drawn
/// from a truncated Gaussian — used as the regret ground truth so the
/// oracle policy and the regret accounting agree exactly with the
/// observation process.
double TruncatedGaussianMean(double mean, double stddev, double lo, double hi);

}  // namespace stats
}  // namespace cdt

#endif  // CDT_STATS_DISTRIBUTIONS_H_
