// The Hoeffding radius the bandit module's UCB indices use (paper Eq. 19).

#ifndef CDT_STATS_CONFIDENCE_H_
#define CDT_STATS_CONFIDENCE_H_

#include <cstdint>

namespace cdt {
namespace stats {

/// The paper's exploration radius (Eq. 19):
///   eps_i = sqrt((K+1) * ln(total_observations) / n_i).
/// `exploration` is the (K+1) factor; generalised so ablations can try the
/// classic UCB1 constant. Returns +infinity when n_i == 0.
double UcbRadius(std::uint64_t n_i, std::uint64_t total_observations,
                 double exploration);

}  // namespace stats
}  // namespace cdt

#endif  // CDT_STATS_CONFIDENCE_H_
