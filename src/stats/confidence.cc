#include "stats/confidence.h"

#include <cmath>
#include <limits>

namespace cdt {
namespace stats {

double UcbRadius(std::uint64_t n_i, std::uint64_t total_observations,
                 double exploration) {
  if (n_i == 0) return std::numeric_limits<double>::infinity();
  double log_term =
      std::log(std::max<double>(static_cast<double>(total_observations), 2.0));
  return std::sqrt(exploration * log_term / static_cast<double>(n_i));
}

}  // namespace stats
}  // namespace cdt
