// Samplers built on the deterministic RNG: uniform, Gaussian (Box–Muller),
// truncated Gaussian (the paper's quality-observation noise model), Zipf
// (zone popularity in the synthetic taxi trace) and exponential.

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

 private:
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Gaussian truncated to [lo, hi] by rejection sampling, matching the
/// paper's "truncated Gaussian distribution to generate sellers' observed
/// qualities" in [0, 1]. Falls back to clamping after `max_rejects` misses
/// (only reachable for pathological (mean, stddev) far outside the window).
class TruncatedGaussianSampler {
 public:
  /// Creates a sampler for N(mean, stddev^2) truncated to [lo, hi].
  /// Invalid bounds (lo >= hi) or stddev <= 0 are reported via Result.
  static util::Result<TruncatedGaussianSampler> Create(double mean,
                                                       double stddev,
                                                       double lo, double hi);

  double Sample(Xoshiro256& rng);

  double mean() const { return mean_; }
  double stddev() const { return stddev_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// The internal Gaussian's spare cache, exposed for snapshot/restore.
  const GaussianSampler& gaussian() const { return gaussian_; }
  GaussianSampler* mutable_gaussian() { return &gaussian_; }

 private:
  TruncatedGaussianSampler(double mean, double stddev, double lo, double hi)
      : mean_(mean), stddev_(stddev), lo_(lo), hi_(hi) {}

  static constexpr int kMaxRejects = 256;

  double mean_;
  double stddev_;
  double lo_;
  double hi_;
  GaussianSampler gaussian_;
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
