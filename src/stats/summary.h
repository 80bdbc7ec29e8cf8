// Streaming summary statistics (Welford's algorithm). Used by the regret
// tracker, the metric collectors and the test suite's distribution checks.

#ifndef CDT_STATS_SUMMARY_H_
#define CDT_STATS_SUMMARY_H_

#include <cstdint>
#include <limits>

namespace cdt {
namespace stats {

/// Single-pass mean/variance/min/max accumulator (numerically stable).
class RunningSummary {
 public:
  void Add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n).
  double variance() const;
  /// Sample variance (divides by n-1); 0 with fewer than two samples.
  double sample_variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace stats
}  // namespace cdt

#endif  // CDT_STATS_SUMMARY_H_
