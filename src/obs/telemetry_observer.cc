#include "obs/telemetry_observer.h"

#include <algorithm>
#include <vector>

#include "market/trading_engine.h"

namespace cdt {
namespace obs {

using market::FaultKind;
using market::FaultKindName;
using market::RoundReport;
using market::TradingEngine;
using util::Status;

TelemetryObserver::TelemetryObserver() {
  MetricsRegistry& reg = registry();
  rounds_total_ =
      reg.GetCounter("cdt_rounds_total", "Rounds settled by the engine.");
  rounds_exploration_total_ = reg.GetCounter(
      "cdt_rounds_exploration_total",
      "Initial-exploration rounds (Algorithm 1 select-all).");
  rounds_degraded_total_ = reg.GetCounter(
      "cdt_rounds_degraded_total", "Rounds rewritten by fault recovery.");
  rounds_resettled_total_ = reg.GetCounter(
      "cdt_rounds_resettled_total",
      "Rounds re-settled on the survivor coalition after defaults.");
  rounds_voided_total_ = reg.GetCounter(
      "cdt_rounds_voided_total",
      "Rounds voided: no delivery, no payments, bandit state untouched.");
  for (int k = 0; k < market::kNumFaultKinds; ++k) {
    faults_total_[static_cast<std::size_t>(k)] = reg.GetCounter(
        "cdt_faults_total", "Fault events recorded by the engine, by kind.",
        {{"kind", FaultKindName(static_cast<FaultKind>(k))}});
  }
  settlement_retries_total_ = reg.GetCounter(
      "cdt_settlement_retries_total",
      "Settlement attempts beyond the first, across all rounds.");
  settlement_backoff_seconds_total_ = reg.GetCounter(
      "cdt_settlement_backoff_seconds_total",
      "Simulated settlement backoff accumulated across all rounds.");
  regret_ = reg.GetGauge(
      "cdt_regret",
      "Cumulative expected quality-revenue regret vs the oracle coalition.");
  round_regret_ = reg.GetGauge(
      "cdt_round_regret", "Last round's expected regret vs the oracle.");
  profit_consumer_ =
      reg.GetGauge("cdt_profit_cumulative", "Cumulative profit by party.",
                   {{"party", "consumer"}});
  profit_platform_ =
      reg.GetGauge("cdt_profit_cumulative", "Cumulative profit by party.",
                   {{"party", "platform"}});
  profit_sellers_ =
      reg.GetGauge("cdt_profit_cumulative", "Cumulative profit by party.",
                   {{"party", "sellers"}});
  ledger_consumer_outflow_ = reg.GetGauge(
      "cdt_ledger_consumer_outflow",
      "Total amount the consumer has paid out (ledger ConsumerOutflow).");
  ledger_seller_inflow_ = reg.GetGauge(
      "cdt_ledger_seller_inflow",
      "Total amount sellers have received (ledger SellerInflow).");
  breaker_open_sellers_ = reg.GetGauge(
      "cdt_breaker_open_sellers",
      "Sellers whose circuit breaker is open and still cooling down.");
  breaker_opened_total_ = reg.GetCounter(
      "cdt_breaker_opened_total",
      "Circuit-breaker closed/probation -> open transitions.");
  picks_explore_total_ = reg.GetCounter(
      "cdt_bandit_picks_total",
      "Per-seller selections, split by exploration vs exploitation.",
      {{"mode", "explore"}});
  picks_exploit_total_ = reg.GetCounter(
      "cdt_bandit_picks_total",
      "Per-seller selections, split by exploration vs exploitation.",
      {{"mode", "exploit"}});
  exploration_ratio_ = reg.GetGauge(
      "cdt_bandit_exploration_ratio",
      "Fraction of all per-seller picks that were exploratory.");
}

Status TelemetryObserver::OnRound(const TradingEngine& engine,
                                  const RoundReport& report) {
  if (!enabled()) return Status::OK();

  rounds_total_->Increment();
  if (report.initial_exploration) rounds_exploration_total_->Increment();
  if (report.degraded) rounds_degraded_total_->Increment();
  if (report.resettled) rounds_resettled_total_->Increment();
  if (report.voided) rounds_voided_total_->Increment();

  for (int k = 0; k < market::kNumFaultKinds; ++k) {
    int n = report.CountFaults(static_cast<FaultKind>(k));
    if (n > 0) {
      faults_total_[static_cast<std::size_t>(k)]->Add(
          static_cast<double>(n));
    }
  }
  if (report.settlement_attempts > 1) {
    settlement_retries_total_->Add(
        static_cast<double>(report.settlement_attempts - 1));
  }
  if (report.settlement_backoff > 0.0) {
    settlement_backoff_seconds_total_->Add(report.settlement_backoff);
  }

  consumer_profit_cum_ += report.consumer_profit;
  platform_profit_cum_ += report.platform_profit;
  seller_profit_cum_ += report.seller_profit_total;
  profit_consumer_->Set(consumer_profit_cum_);
  profit_platform_->Set(platform_profit_cum_);
  profit_sellers_->Set(seller_profit_cum_);

  oracle_revenue_cum_ += engine.oracle_round_revenue();
  expected_revenue_cum_ += report.expected_quality_revenue;
  regret_->Set(oracle_revenue_cum_ - expected_revenue_cum_);
  round_regret_->Set(engine.oracle_round_revenue() -
                     report.expected_quality_revenue);

  ledger_consumer_outflow_->Set(engine.ledger().ConsumerOutflow());
  ledger_seller_inflow_->Set(engine.ledger().SellerInflow());

  const market::ReliabilityTracker& rel = engine.reliability();
  breaker_open_sellers_->Set(
      static_cast<double>(rel.QuarantinedCount(report.round)));
  const std::int64_t opened = rel.total_opened();
  if (opened > breaker_opened_seen_) {
    breaker_opened_total_->Add(
        static_cast<double>(opened - breaker_opened_seen_));
  }
  breaker_opened_seen_ = opened;

  // Exploration split: a pick is exploratory when the seller is outside
  // the current greedy (top-K-by-mean) set — i.e. the UCB bonus, not the
  // estimate, carried it into the coalition. The estimator is read after
  // this round's update, a one-round skew that is irrelevant for a
  // diagnostic ratio. Policies without an estimator are skipped.
  const bandit::EstimatorBank* bank = engine.policy().estimator();
  if (bank != nullptr && !report.selected.empty()) {
    bank->TopKByMeanInto(engine.config().num_selected, &greedy_scratch_);
    const std::vector<int>& greedy = greedy_scratch_;
    double explore = 0.0;
    for (int seller : report.selected) {
      if (std::find(greedy.begin(), greedy.end(), seller) == greedy.end()) {
        explore += 1.0;
      }
    }
    double exploit = static_cast<double>(report.selected.size()) - explore;
    if (explore > 0.0) picks_explore_total_->Add(explore);
    if (exploit > 0.0) picks_exploit_total_->Add(exploit);
    double total =
        picks_explore_total_->value() + picks_exploit_total_->value();
    if (total > 0.0) {
      exploration_ratio_->Set(picks_explore_total_->value() / total);
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace cdt
