#include "market/invariants.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "game/profit.h"
#include "game/stackelberg.h"
#include "market/trading_engine.h"

namespace cdt {
namespace market {

using util::Status;

const char* InvariantKindName(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kLedgerConservation:
      return "LedgerConservation";
    case InvariantKind::kIndividualRationality:
      return "IndividualRationality";
    case InvariantKind::kStationarity:
      return "Stationarity";
    case InvariantKind::kBanditSanity:
      return "BanditSanity";
  }
  return "Unknown";
}

std::string InvariantViolation::ToString() const {
  std::ostringstream os;
  os << "[" << InvariantKindName(kind) << "] round " << round << " " << check
     << ": " << detail << " (|residual|=" << magnitude << ")";
  return os.str();
}

namespace {

double RelScale(double a, double b) {
  return std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string Num(double x) {
  std::ostringstream os;
  os.precision(12);
  os << x;
  return os.str();
}

}  // namespace

InvariantChecker::InvariantChecker(InvariantOptions options)
    : options_(options) {}

void InvariantChecker::AddViolation(InvariantKind kind, std::int64_t round,
                                    std::string check, std::string detail,
                                    double magnitude) {
  ++violation_count_;
  if (violations_.size() >= options_.max_violations) {
    truncated_ = true;
    return;
  }
  InvariantViolation v;
  v.kind = kind;
  v.round = round;
  v.check = std::move(check);
  v.detail = std::move(detail);
  v.magnitude = magnitude;
  violations_.push_back(std::move(v));
}

Status InvariantChecker::ResetBaseline(const Ledger& ledger,
                                       const bandit::EstimatorBank* estimates,
                                       std::int64_t last_round) {
  if (last_round < 0) {
    return Status::InvalidArgument("baseline round must be >= 0");
  }
  expected_consumer_outflow_ = ledger.ConsumerOutflow();
  expected_seller_inflow_ = ledger.SellerInflow();
  expected_seller_balance_.assign(
      static_cast<std::size_t>(ledger.num_sellers()), 0.0);
  for (int i = 0; i < ledger.num_sellers(); ++i) {
    util::Result<double> balance = ledger.Balance(i);
    if (!balance.ok()) return balance.status();
    expected_seller_balance_[static_cast<std::size_t>(i)] = balance.value();
  }
  if (estimates != nullptr) {
    prev_total_observations_ = estimates->total_observations();
    prev_arm_observations_.assign(
        static_cast<std::size_t>(estimates->num_arms()), 0);
    for (int i = 0; i < estimates->num_arms(); ++i) {
      prev_arm_observations_[static_cast<std::size_t>(i)] =
          estimates->arm(i).observations;
    }
  } else {
    prev_total_observations_ = 0;
    prev_arm_observations_.clear();
  }
  last_round_ = last_round;
  cumulative_regret_ = 0.0;
  return Status::OK();
}

Status InvariantChecker::OnRound(const TradingEngine& engine,
                                 const RoundReport& report) {
  const EngineConfig& config = engine.config();
  EngineStateView view;
  view.ledger = &engine.ledger();
  view.estimates = &engine.pricing_estimates();
  view.seller_costs = &config.seller_costs;
  view.platform_cost = config.platform_cost;
  view.valuation = config.valuation;
  view.consumer_price_bounds = config.consumer_price_bounds;
  view.collection_price_bounds = config.collection_price_bounds;
  view.max_sensing_time = config.job.round_duration;
  view.num_pois = config.job.num_pois;
  view.num_selected = config.num_selected;
  view.oracle_round_revenue = engine.oracle_round_revenue();
  return Check(view, report);
}

Status InvariantChecker::Check(const EngineStateView& view,
                               const RoundReport& report) {
  std::size_t before = violation_count_;

  // Basic report shape; everything downstream indexes these in lockstep.
  // (A voided round keeps its committed coalition with zeroed tau, so k
  // stays positive even when nothing was delivered.)
  std::size_t k = report.selected.size();
  if (report.tau.size() != k || report.seller_profits.size() != k ||
      report.game_qualities.size() != k || k == 0 ||
      (!report.contracted_tau.empty() && report.contracted_tau.size() != k)) {
    AddViolation(InvariantKind::kLedgerConservation, report.round,
                 "report.shape",
                 "selected/tau/profits/qualities sizes disagree (" +
                     std::to_string(k) + "/" + std::to_string(report.tau.size()) +
                     "/" + std::to_string(report.seller_profits.size()) + "/" +
                     std::to_string(report.game_qualities.size()) + ")",
                 static_cast<double>(k));
  } else {
    if (report.round <= last_round_) {
      AddViolation(InvariantKind::kBanditSanity, report.round,
                   "round.monotone",
                   "round " + std::to_string(report.round) +
                       " not after previously observed round " +
                       std::to_string(last_round_),
                   static_cast<double>(last_round_ - report.round + 1));
    }
    if (view.ledger != nullptr) CheckLedger(view, report);
    CheckProfits(view, report);
    if (options_.check_stationarity) CheckStationarity(view, report);
    if (options_.check_bandit) CheckBandit(view, report);
  }
  last_round_ = std::max(last_round_, report.round);

  if (violation_count_ == before) return Status::OK();
  std::size_t fresh = violation_count_ - before;
  std::ostringstream os;
  os << "invariant violation in round " << report.round << ": ";
  if (before < violations_.size()) {
    os << violations_[before].ToString();
  } else {
    os << "(record truncated after " << violations_.size() << " entries)";
  }
  if (fresh > 1) os << " [+" << fresh - 1 << " more]";
  return Status::Internal(os.str());
}

void InvariantChecker::CheckLedger(const EngineStateView& view,
                                   const RoundReport& report) {
  const Ledger& ledger = *view.ledger;
  double tol = options_.ledger_tolerance;
  auto expect_eq = [&](const char* check, double got, double want) {
    double residual = std::fabs(got - want);
    if (residual > tol * RelScale(got, want)) {
      AddViolation(InvariantKind::kLedgerConservation, report.round, check,
                   "got " + Num(got) + ", want " + Num(want), residual);
    }
  };

  double reward = report.consumer_price * report.total_time;
  double payments = 0.0;
  for (double tau : report.tau) payments += report.collection_price * tau;
  expected_consumer_outflow_ += reward;
  expected_seller_inflow_ += payments;
  if (expected_seller_balance_.size() <
      static_cast<std::size_t>(ledger.num_sellers())) {
    expected_seller_balance_.resize(
        static_cast<std::size_t>(ledger.num_sellers()), 0.0);
  }
  for (std::size_t j = 0; j < report.selected.size(); ++j) {
    int seller = report.selected[j];
    if (seller < 0 || seller >= ledger.num_sellers()) {
      AddViolation(InvariantKind::kLedgerConservation, report.round,
                   "ledger.seller_index",
                   "selected seller " + std::to_string(seller) +
                       " outside ledger account range",
                   static_cast<double>(seller));
      continue;
    }
    expected_seller_balance_[static_cast<std::size_t>(seller)] +=
        report.collection_price * report.tau[j];
  }

  // Double-entry: the sum of all balances cancels to zero. The residual is
  // pure floating-point cancellation error, which grows with the total
  // money volume moved, so the tolerance scales with the cumulative flows
  // rather than the (zero) expected value.
  double net = ledger.NetPosition();
  double volume = ledger.ConsumerOutflow() + ledger.SellerInflow();
  if (std::fabs(net) > tol * std::max(1.0, volume)) {
    AddViolation(InvariantKind::kLedgerConservation, report.round,
                 "ledger.net_position",
                 "net position " + Num(net) + " after moving " + Num(volume) +
                     " total",
                 std::fabs(net));
  }
  // Consumer outflow == platform inflow == Σ_t p^{J,t} Στ^t.
  expect_eq("ledger.consumer_outflow", ledger.ConsumerOutflow(),
            expected_consumer_outflow_);
  // Platform outflow == Σ seller payments == Σ_t Σ_i p^t τ_i^t.
  expect_eq("ledger.seller_inflow", ledger.SellerInflow(),
            expected_seller_inflow_);
  util::Result<double> consumer = ledger.Balance(kConsumerAccount);
  util::Result<double> platform = ledger.Balance(kPlatformAccount);
  if (consumer.ok() && platform.ok()) {
    expect_eq("ledger.consumer_balance", consumer.value(),
              -expected_consumer_outflow_);
    expect_eq("ledger.platform_balance", platform.value(),
              expected_consumer_outflow_ - expected_seller_inflow_);
  } else {
    AddViolation(InvariantKind::kLedgerConservation, report.round,
                 "ledger.accounts", "consumer/platform accounts unreadable",
                 0.0);
  }
  for (std::size_t j = 0; j < report.selected.size(); ++j) {
    int seller = report.selected[j];
    if (seller < 0 || seller >= ledger.num_sellers()) continue;
    util::Result<double> balance = ledger.Balance(seller);
    if (!balance.ok()) continue;
    double want = expected_seller_balance_[static_cast<std::size_t>(seller)];
    double residual = std::fabs(balance.value() - want);
    if (residual > tol * RelScale(balance.value(), want)) {
      AddViolation(InvariantKind::kLedgerConservation, report.round,
                   "ledger.seller_balance",
                   "seller " + std::to_string(seller) + " balance " +
                       Num(balance.value()) + ", want " + Num(want),
                   residual);
    }
  }
  // Per-round conservation identity linking money flow to the reported
  // platform profit: p^J Στ − p Στ = Ω + C^J(Στ)  (Eq. 7).
  double aggregation_cost =
      game::PlatformCost(view.platform_cost, report.total_time);
  expect_eq("ledger.flow_identity", reward - payments,
            report.platform_profit + aggregation_cost);
}

void InvariantChecker::CheckProfits(const EngineStateView& view,
                                    const RoundReport& report) {
  double tol = options_.ledger_tolerance;
  auto expect_eq = [&](const char* check, double got, double want) {
    double residual = std::fabs(got - want);
    if (residual > tol * RelScale(got, want)) {
      AddViolation(InvariantKind::kIndividualRationality, report.round, check,
                   "reported " + Num(got) + ", recomputed " + Num(want),
                   residual);
    }
  };

  // Finiteness of everything the round reports.
  bool finite = std::isfinite(report.consumer_price) &&
                std::isfinite(report.collection_price) &&
                std::isfinite(report.total_time) &&
                std::isfinite(report.consumer_profit) &&
                std::isfinite(report.platform_profit) &&
                std::isfinite(report.seller_profit_total);
  for (double tau : report.tau) finite = finite && std::isfinite(tau);
  for (double psi : report.seller_profits) finite = finite && std::isfinite(psi);
  if (!finite) {
    AddViolation(InvariantKind::kIndividualRationality, report.round,
                 "report.finite", "non-finite price/time/profit in report",
                 0.0);
    return;
  }

  // Eq. 5/7/9 consistency: the reported profits must equal the profit
  // functions evaluated at the reported strategies.
  expect_eq("report.total_time", report.total_time,
            game::TotalTime(report.tau));
  double quality_sum = 0.0;
  for (double q : report.game_qualities) quality_sum += q;
  double mean_quality =
      quality_sum / static_cast<double>(report.game_qualities.size());
  expect_eq("report.consumer_profit", report.consumer_profit,
            game::ConsumerProfit(report.consumer_price, mean_quality,
                                 report.total_time, view.valuation));
  expect_eq("report.platform_profit", report.platform_profit,
            game::PlatformProfit(report.consumer_price,
                                 report.collection_price, report.total_time,
                                 view.platform_cost));
  double psi_total = 0.0;
  bool costs_ok = view.seller_costs != nullptr;
  for (std::size_t j = 0; j < report.selected.size(); ++j) {
    int seller = report.selected[j];
    if (!costs_ok || seller < 0 ||
        seller >= static_cast<int>(view.seller_costs->size())) {
      costs_ok = false;
      break;
    }
    double psi = game::SellerProfit(
        report.collection_price, report.tau[j],
        (*view.seller_costs)[static_cast<std::size_t>(seller)],
        report.game_qualities[j]);
    double residual = std::fabs(psi - report.seller_profits[j]);
    if (residual > tol * RelScale(psi, report.seller_profits[j])) {
      AddViolation(InvariantKind::kIndividualRationality, report.round,
                   "report.seller_profit",
                   "seller " + std::to_string(seller) + " reported " +
                       Num(report.seller_profits[j]) + ", recomputed " +
                       Num(psi),
                   residual);
    }
    psi_total += report.seller_profits[j];
  }
  expect_eq("report.seller_profit_total", report.seller_profit_total,
            psi_total);

  // Individual rationality (Thm. 14): at the Stage-3 best response of
  // Eq. (20) a seller never incurs a loss — the interior optimum dominates
  // τ = 0 whose profit is exactly zero. Round-1 exploration imposes τ^0
  // instead of a best response, so IR is only guaranteed for regular rounds.
  if (!report.initial_exploration) {
    for (std::size_t j = 0; j < report.selected.size(); ++j) {
      double payment = report.collection_price * report.tau[j];
      double floor = -options_.ir_epsilon * std::max(1.0, std::fabs(payment));
      if (report.seller_profits[j] < floor) {
        AddViolation(InvariantKind::kIndividualRationality, report.round,
                     "ir.seller",
                     "seller " + std::to_string(report.selected[j]) +
                         " realises " + Num(report.seller_profits[j]) +
                         " < 0 at its best response (payment " +
                         Num(payment) + ")",
                     std::fabs(report.seller_profits[j]));
      }
    }
  }
}

util::Status InvariantChecker::RetargetSolver(const EngineStateView& view) {
  if (solver_.has_value()) {
    const game::GameConfig& held = solver_->config();
    if (held.platform.theta == view.platform_cost.theta &&
        held.platform.lambda == view.platform_cost.lambda &&
        held.valuation.omega == view.valuation.omega &&
        held.consumer_price_bounds.lo == view.consumer_price_bounds.lo &&
        held.consumer_price_bounds.hi == view.consumer_price_bounds.hi &&
        held.collection_price_bounds.lo == view.collection_price_bounds.lo &&
        held.collection_price_bounds.hi == view.collection_price_bounds.hi &&
        held.max_sensing_time == view.max_sensing_time) {
      // ResetCoalition re-checks sizes and qualities only; the cost
      // parameters are checked here, where Validate would check them.
      if (!game_sellers_.empty() &&
          game_sellers_.size() == game_qualities_.size()) {
        for (const game::SellerCostParams& s : game_sellers_) {
          CDT_RETURN_NOT_OK(s.Validate());
        }
      }
      return solver_->ResetCoalition(&game_sellers_, &game_qualities_);
    }
  }
  game::GameConfig config;
  config.sellers = game_sellers_;
  config.qualities = game_qualities_;
  config.platform = view.platform_cost;
  config.valuation = view.valuation;
  config.consumer_price_bounds = view.consumer_price_bounds;
  config.collection_price_bounds = view.collection_price_bounds;
  config.max_sensing_time = view.max_sensing_time;
  util::Result<game::StackelbergSolver> created =
      game::StackelbergSolver::Create(std::move(config));
  if (!created.ok()) {
    solver_.reset();
    return created.status();
  }
  solver_.emplace(std::move(created).value());
  return util::Status::OK();
}

void InvariantChecker::CheckStationarity(const EngineStateView& view,
                                         const RoundReport& report) {
  // Round-1 exploration plays the fixed (p_max, τ^0) opening, not an
  // equilibrium — there is nothing stationary to verify. A voided round
  // traded nothing (zero tau, zero flows), so no stage played either.
  if (report.initial_exploration || report.voided) return;
  if (view.seller_costs == nullptr) return;

  double tol = options_.stationarity_tolerance;
  double pj = report.consumer_price;
  double p = report.collection_price;

  // Rebuild the round's game exactly as the engine priced it.
  game_sellers_.clear();
  for (int seller : report.selected) {
    if (seller < 0 ||
        seller >= static_cast<int>(view.seller_costs->size())) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.config",
                   "selected seller " + std::to_string(seller) +
                       " has no cost parameters",
                   static_cast<double>(seller));
      return;
    }
    game_sellers_.push_back(
        (*view.seller_costs)[static_cast<std::size_t>(seller)]);
  }
  game_qualities_.assign(report.game_qualities.begin(),
                         report.game_qualities.end());
  util::Status solvable = RetargetSolver(view);
  if (!solvable.ok()) {
    AddViolation(InvariantKind::kStationarity, report.round,
                 "stationarity.config",
                 "round game not solvable: " + solvable.ToString(), 0.0);
    return;
  }
  const game::StackelbergSolver& solver = *solver_;

  // Prices must lie inside their feasible boxes (Def. 5).
  auto expect_in_box = [&](const char* check, double price,
                           const util::Interval& box) {
    double slack = tol * std::max(1.0, std::fabs(price));
    if (price < box.lo - slack || price > box.hi + slack) {
      AddViolation(InvariantKind::kStationarity, report.round, check,
                   "price " + Num(price) + " outside [" + Num(box.lo) + ", " +
                       Num(box.hi) + "]",
                   std::max(box.lo - price, price - box.hi));
    }
  };
  expect_in_box("stationarity.consumer_box", pj, view.consumer_price_bounds);
  expect_in_box("stationarity.collection_box", p,
                view.collection_price_bounds);

  // Stage 3 (Thm. 14 / Eq. 20): every contracted τ_i is the seller's best
  // response, and interior times satisfy the first-order condition
  // p = q̄(2aτ + b). Under partial delivery the contracted best responses
  // live in contracted_tau and the delivered times must only stay within
  // [0, contracted].
  const std::vector<double>& contracted =
      report.contracted_tau.empty() ? report.tau : report.contracted_tau;
  if (!report.contracted_tau.empty()) {
    for (std::size_t j = 0; j < report.tau.size(); ++j) {
      double slack = tol * std::max(1.0, std::fabs(contracted[j]));
      if (report.tau[j] < -slack || report.tau[j] > contracted[j] + slack) {
        AddViolation(InvariantKind::kStationarity, report.round,
                     "stationarity.delivered_bounds",
                     "seller " + std::to_string(report.selected[j]) +
                         " delivered tau " + Num(report.tau[j]) +
                         " outside [0, contracted " + Num(contracted[j]) +
                         "]",
                     std::max(-report.tau[j],
                              report.tau[j] - contracted[j]));
      }
    }
  }
  double t_cap = view.max_sensing_time;
  bool all_interior = true;
  for (std::size_t j = 0; j < contracted.size(); ++j) {
    double tau = contracted[j];
    double best = solver.SellerBestTime(static_cast<int>(j), p);
    double residual = std::fabs(tau - best);
    if (residual > tol * std::max(1.0, std::fabs(best))) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.tau",
                   "seller " + std::to_string(report.selected[j]) + " tau " +
                       Num(tau) + ", best response " + Num(best),
                   residual);
    }
    double q = report.game_qualities[j];
    const game::SellerCostParams& cost =
        (*view.seller_costs)[static_cast<std::size_t>(report.selected[j])];
    // KKT check of Thm. 14: at the reported τ either the first-order
    // condition p = q̄(2aτ + b) holds, or the marginal profit points into
    // the active box bound. Classifying by the FOC sign (rather than by
    // distance to the bounds) keeps tiny-but-interior optima legal.
    double foc = p - q * (2.0 * cost.a * tau + cost.b);
    double foc_tol = tol * std::max(1.0, std::fabs(p));
    if (std::fabs(foc) <= foc_tol) {
      if (!(tau > 0.0) || !(tau < t_cap)) all_interior = false;
    } else if (foc > 0.0) {
      all_interior = false;
      // Marginal profit positive at τ: only consistent with the τ = T cap.
      if (tau < t_cap - tol * std::max(1.0, t_cap)) {
        AddViolation(InvariantKind::kStationarity, report.round,
                     "stationarity.seller_foc",
                     "seller " + std::to_string(report.selected[j]) +
                         " tau " + Num(tau) +
                         " below the cap despite positive marginal profit " +
                         Num(foc),
                     foc);
      }
    } else {
      all_interior = false;
      // Marginal profit negative at τ: only consistent with τ = 0.
      if (tau > tol) {
        AddViolation(InvariantKind::kStationarity, report.round,
                     "stationarity.seller_foc",
                     "seller " + std::to_string(report.selected[j]) +
                         " tau " + Num(tau) +
                         " > 0 despite negative marginal profit " + Num(foc),
                     -foc);
      }
    }
  }

  // Stage 2 (Eq. 7): the platform's price is profit-maximising against the
  // sellers' best responses. Value comparison (the argmax can sit on a
  // profit plateau) against the re-solved exact best response.
  double p_star = solver.PlatformBestPrice(pj);
  double omega_at = solver.PlatformProfitAnticipating(pj, p);
  double omega_star = solver.PlatformProfitAnticipating(pj, p_star);
  if (omega_star - omega_at > tol * std::max(1.0, std::fabs(omega_star))) {
    AddViolation(InvariantKind::kStationarity, report.round,
                 "stationarity.platform_opt",
                 "platform profit " + Num(omega_at) + " at p=" + Num(p) +
                     " improvable to " + Num(omega_star) + " at p=" +
                     Num(p_star),
                 omega_star - omega_at);
  }
  // Interior regime: the corrected Theorem-15 closed form (the stationary
  // point of Eq. 7) must reproduce the price.
  if (all_interior) {
    double p_interior = solver.PlatformBestPriceInterior(pj);
    const util::Interval& box = view.collection_price_bounds;
    bool unclamped = p_interior > box.lo + tol && p_interior < box.hi - tol;
    if (unclamped &&
        std::fabs(p - p_interior) > tol * std::max(1.0, std::fabs(p))) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.platform_foc",
                   "interior regime but p " + Num(p) +
                       " differs from the Thm. 15 stationary point " +
                       Num(p_interior),
                   std::fabs(p - p_interior));
    }
  }

  // Stage 1 (Eq. 8 / Thm. 16): the consumer's price maximises the
  // anticipated profit (Def. 13): its profit must reach the supremum over
  // the consumer box, which the regime walk gives in closed form. After a
  // default re-settlement p^J stays committed from the pre-fault
  // coalition, so it is not optimal for the survivor game — the consumer
  // optimality claim only applies to un-resettled rounds. The supremum
  // comes from the engine's own walk, certificate included: the check
  // catches a committed price that falls short of it, not a flaw in the
  // walk, which tests/game's oracle fuzz guards.
  if (report.resettled) return;
  const game::StackelbergSolver::ConsumerSupremum sup =
      solver.ConsumerProfitSupremum();
  double f_at = solver.ConsumerProfitAnticipating(pj);
  if (sup.profit - f_at > tol * std::max(1.0, std::fabs(sup.profit))) {
    AddViolation(InvariantKind::kStationarity, report.round,
                 "stationarity.consumer_opt",
                 "consumer profit " + Num(f_at) + " at pJ=" + Num(pj) +
                     " below the supremum " + Num(sup.profit) + " near pJ=" +
                     Num(sup.price),
                 sup.profit - f_at);
  }
}

void InvariantChecker::CheckBandit(const EngineStateView& view,
                                   const RoundReport& report) {
  // Only batches that passed validation feed the estimators: a voided
  // round delivers nothing, and a corrupted report is discarded so it can
  // never bias the quality estimates.
  if (view.estimates != nullptr) {
    const bandit::EstimatorBank& bank = *view.estimates;
    const std::size_t num_arms = static_cast<std::size_t>(bank.num_arms());
    if (prev_arm_observations_.size() < num_arms) {
      prev_arm_observations_.resize(num_arms, 0);
    }
    // A selected seller delivered (DeliveredDataSellers) unless the round
    // was voided or a corrupted-report fault names it. The faults are
    // marked by id once, so each membership test is O(1).
    if (corrupted_mark_.size() < num_arms) corrupted_mark_.resize(num_arms, 0);
    ++mark_epoch_;
    for (const FaultEvent& e : report.faults) {
      if (e.kind == FaultKind::kCorruptedReport && e.seller >= 0 &&
          static_cast<std::size_t>(e.seller) < num_arms) {
        corrupted_mark_[static_cast<std::size_t>(e.seller)] = mark_epoch_;
      }
    }
    auto was_delivered = [&](int seller) {
      if (report.voided) return false;
      if (seller >= 0 && static_cast<std::size_t>(seller) < num_arms) {
        return corrupted_mark_[static_cast<std::size_t>(seller)] !=
               mark_epoch_;
      }
      for (const FaultEvent& e : report.faults) {  // ids outside the bank
        if (e.kind == FaultKind::kCorruptedReport && e.seller == seller) {
          return false;
        }
      }
      return true;
    };
    std::uint64_t delivered = 0;
    for (int seller : report.selected) delivered += was_delivered(seller);
    // Counters are monotone: the round adds exactly L observations per
    // delivering seller, nothing is lost and nothing decays.
    std::uint64_t expected_inc =
        static_cast<std::uint64_t>(view.num_pois) * delivered;
    std::uint64_t total = bank.total_observations();
    if (total != prev_total_observations_ + expected_inc) {
      AddViolation(
          InvariantKind::kBanditSanity, report.round, "bandit.total_counter",
          "total observations " + std::to_string(total) + ", expected " +
              std::to_string(prev_total_observations_ + expected_inc),
          std::fabs(static_cast<double>(total) -
                    static_cast<double>(prev_total_observations_ +
                                        expected_inc)));
    }
    prev_total_observations_ = total;
    for (int seller : report.selected) {
      if (seller < 0 || seller >= bank.num_arms()) {
        AddViolation(InvariantKind::kBanditSanity, report.round,
                     "bandit.arm_index",
                     "selected seller " + std::to_string(seller) +
                         " outside the estimator bank",
                     static_cast<double>(seller));
        continue;
      }
      const bandit::ArmState& arm = bank.arm(seller);
      std::uint64_t prev =
          prev_arm_observations_[static_cast<std::size_t>(seller)];
      std::uint64_t arm_inc =
          was_delivered(seller) ? static_cast<std::uint64_t>(view.num_pois)
                                : 0;
      if (arm.observations != prev + arm_inc) {
        AddViolation(InvariantKind::kBanditSanity, report.round,
                     "bandit.arm_counter",
                     "seller " + std::to_string(seller) + " counter " +
                         std::to_string(arm.observations) + ", expected " +
                         std::to_string(prev + arm_inc),
                     0.0);
      }
      prev_arm_observations_[static_cast<std::size_t>(seller)] =
          arm.observations;
      if (!(arm.mean >= -1e-9 && arm.mean <= 1.0 + 1e-9)) {
        AddViolation(InvariantKind::kBanditSanity, report.round,
                     "bandit.mean_range",
                     "seller " + std::to_string(seller) +
                         " mean quality estimate " + Num(arm.mean) +
                         " outside [0, 1]",
                     std::fabs(arm.mean - 0.5) - 0.5);
      }
      if (arm.observations > 0 && !std::isfinite(bank.UcbValue(seller))) {
        AddViolation(InvariantKind::kBanditSanity, report.round,
                     "bandit.ucb_finite",
                     "seller " + std::to_string(seller) +
                         " has a non-finite UCB index despite " +
                         std::to_string(arm.observations) + " observations",
                     0.0);
      }
    }
  }

  // Regret monotonicity under the oracle definition (Eq. 34): a K-sized
  // selection can never beat the oracle's expected revenue, so every
  // increment is non-negative and the cumulative regret non-decreasing.
  if (view.oracle_round_revenue > 0.0 &&
      report.selected.size() ==
          static_cast<std::size_t>(view.num_selected)) {
    double increment =
        view.oracle_round_revenue - report.expected_quality_revenue;
    double slack =
        options_.ledger_tolerance *
        std::max(1.0, std::fabs(view.oracle_round_revenue));
    if (increment < -slack) {
      AddViolation(InvariantKind::kBanditSanity, report.round,
                   "bandit.regret_monotone",
                   "round expected revenue " +
                       Num(report.expected_quality_revenue) +
                       " exceeds the oracle optimum " +
                       Num(view.oracle_round_revenue),
                   -increment);
    } else {
      cumulative_regret_ += std::max(0.0, increment);
    }
  }
}

}  // namespace market
}  // namespace cdt
