#include "analysis/run_analysis.h"

#include <algorithm>
#include <set>

namespace cdt {
namespace analysis {

using market::RoundReport;
using util::Result;
using util::Status;

Result<RunStatistics> Summarize(const std::vector<RoundReport>& rounds) {
  if (rounds.empty()) {
    return Status::InvalidArgument("cannot summarise an empty run");
  }
  RunStatistics stats;
  stats.rounds = static_cast<std::int64_t>(rounds.size());
  for (const RoundReport& report : rounds) {
    stats.total_consumer_profit += report.consumer_profit;
    stats.total_platform_profit += report.platform_profit;
    stats.total_seller_profit += report.seller_profit_total;
    stats.total_expected_revenue += report.expected_quality_revenue;
    stats.total_observed_revenue += report.observed_quality_revenue;
    stats.mean_consumer_price += report.consumer_price;
    stats.mean_collection_price += report.collection_price;
    stats.mean_total_time += report.total_time;
    if (report.initial_exploration) ++stats.exploration_rounds;
  }
  double n = static_cast<double>(rounds.size());
  stats.mean_consumer_price /= n;
  stats.mean_collection_price /= n;
  stats.mean_total_time /= n;
  return stats;
}

Result<std::vector<double>> CumulativeRegretCurve(
    const std::vector<RoundReport>& rounds, double optimal_round_revenue) {
  if (optimal_round_revenue <= 0.0) {
    return Status::InvalidArgument("optimal_round_revenue must be > 0");
  }
  std::vector<double> out(rounds.size());
  double total = 0.0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    total += optimal_round_revenue - rounds[i].expected_quality_revenue;
    out[i] = total;
  }
  return out;
}

Result<std::int64_t> DetectSelectionConvergence(
    const std::vector<RoundReport>& rounds, std::int64_t stable_rounds) {
  if (stable_rounds <= 0) {
    return Status::InvalidArgument("stable_rounds must be > 0");
  }
  if (rounds.empty()) return static_cast<std::int64_t>(0);

  std::vector<std::set<int>> sets;
  sets.reserve(rounds.size());
  for (const RoundReport& report : rounds) {
    sets.emplace_back(report.selected.begin(), report.selected.end());
  }
  // Walk backwards: find the start of the final stable streak.
  std::size_t start = sets.size() - 1;
  while (start > 0 && sets[start - 1] == sets.back()) --start;
  std::int64_t streak = static_cast<std::int64_t>(sets.size() - start);
  if (streak >= stable_rounds) {
    return static_cast<std::int64_t>(start + 1);  // 1-based round
  }
  return static_cast<std::int64_t>(0);
}

}  // namespace analysis
}  // namespace cdt
