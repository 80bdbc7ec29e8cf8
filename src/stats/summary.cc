#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace cdt {
namespace stats {

void RunningSummary::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningSummary::variance() const {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningSummary::sample_variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningSummary::stddev() const { return std::sqrt(variance()); }

}  // namespace stats
}  // namespace cdt
