// Offline analysis over recorded rounds (the market::RoundReport list that
// persist::LoadRecordedRun decodes from an event log): summary statistics,
// cumulative regret curves and selection-convergence detection. Lets users
// audit a long campaign from its recording without re-simulation.

#ifndef CDT_ANALYSIS_RUN_ANALYSIS_H_
#define CDT_ANALYSIS_RUN_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "market/types.h"
#include "util/status.h"

namespace cdt {
namespace analysis {

/// Whole-run aggregate of a recorded run.
struct RunStatistics {
  std::int64_t rounds = 0;
  double total_consumer_profit = 0.0;
  double total_platform_profit = 0.0;
  double total_seller_profit = 0.0;
  double total_expected_revenue = 0.0;
  double total_observed_revenue = 0.0;
  double mean_consumer_price = 0.0;
  double mean_collection_price = 0.0;
  double mean_total_time = 0.0;
  /// Rounds flagged as initial exploration.
  std::int64_t exploration_rounds = 0;
};

/// Aggregates a recorded run; errors on empty input.
util::Result<RunStatistics> Summarize(
    const std::vector<market::RoundReport>& rounds);

/// Cumulative regret curve: prefix sums of
/// (optimal_round_revenue − expected_quality_revenue). Initial-exploration
/// rounds are included (they are part of Algorithm 1's cost).
util::Result<std::vector<double>> CumulativeRegretCurve(
    const std::vector<market::RoundReport>& rounds,
    double optimal_round_revenue);

/// First 1-based round index from which the *selected set* (order
/// ignored) stays identical for at least `stable_rounds` consecutive
/// rounds and through the end of the run; 0 when never converged.
util::Result<std::int64_t> DetectSelectionConvergence(
    const std::vector<market::RoundReport>& rounds,
    std::int64_t stable_rounds);

}  // namespace analysis
}  // namespace cdt

#endif  // CDT_ANALYSIS_RUN_ANALYSIS_H_
