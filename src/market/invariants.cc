#include "market/invariants.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "game/profit.h"
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

/// Relative tolerance (with a max(1, ·) floor) for money accounting.
constexpr double kLedgerTolerance = 1e-7;
/// ε for individual rationality: Ψ_i >= −ε · max(1, p τ_i).
constexpr double kIrEpsilon = 1e-7;
/// Relative tolerance for stationarity/FOC residuals and for profit-value
/// comparisons against the recomputed stage optima.
constexpr double kStationarityTolerance = 1e-5;

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

void InvariantChecker::AddViolation(InvariantKind kind, std::int64_t round,
                                    std::string check, std::string detail,
                                    double magnitude) {
  ++violation_count_;
  if (violations_.size() >= kMaxViolations) {
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
  const int arms = estimates != nullptr ? estimates->num_arms() : 0;
  seller_records_.assign(
      static_cast<std::size_t>(std::max(ledger.num_sellers(), arms)), {});
  for (int i = 0; i < ledger.num_sellers(); ++i) {
    seller_records_[static_cast<std::size_t>(i)].balance =
        ledger.balances()[static_cast<std::size_t>(i) + 2];
  }
  for (int i = 0; i < arms; ++i) {
    seller_records_[static_cast<std::size_t>(i)].observations =
        estimates->observation_counts()[static_cast<std::size_t>(i)];
  }
  prev_total_observations_ =
      estimates != nullptr ? estimates->total_observations() : 0;
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
  view.proof = engine.solve_proof();
  CDT_RETURN_NOT_OK(Check(view, report));
  // The run's last round: the O(M) audit closes it.
  if (report.round >= config.job.num_rounds) {
    return AuditLedger(engine.ledger());
  }
  return Status::OK();
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
    CheckStationarity(view, report);
    CheckBandit(view, report);
  }
  if (report.initial_exploration) {
    // A select-all round's coalition is M, not K: release the scratch it
    // grew instead of holding its high-water mark.
    record_scratch_ = std::vector<double>();
    cost_scratch_ = std::vector<game::SellerCostParams>();
  }
  last_round_ = std::max(last_round_, report.round);
  return Outcome(before, report.round);
}

Status InvariantChecker::Outcome(std::size_t before,
                                 std::int64_t round) const {
  if (violation_count_ == before) return Status::OK();
  std::size_t fresh = violation_count_ - before;
  std::ostringstream os;
  os << "invariant violation in round " << round << ": ";
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
  double tol = kLedgerTolerance;
  auto expect_eq = [&](const char* check, double got, double want) {
    double residual = std::fabs(got - want);
    if (residual > tol * RelScale(got, want)) {
      AddViolation(InvariantKind::kLedgerConservation, report.round, check,
                   "got " + Num(got) + ", want " + Num(want), residual);
    }
  };

  double reward = report.consumer_price * report.total_time;
  double payments = 0.0;
  if (seller_records_.size() <
      static_cast<std::size_t>(ledger.num_sellers())) {
    seller_records_.resize(static_cast<std::size_t>(ledger.num_sellers()));
  }
  // The round paid each selected seller p·τ_i: its balance must hold every
  // payment so far (balances are slots 2.. of the ledger). The expected
  // balances are read in a first, tight loop: the M-sized records are
  // cold, and a short loop body keeps many more of their cache misses in
  // flight than the checking loop can.
  const std::size_t m = static_cast<std::size_t>(ledger.num_sellers());
  record_scratch_.resize(report.selected.size());
  for (std::size_t j = 0; j < report.selected.size(); ++j) {
    const std::size_t seller = static_cast<std::size_t>(report.selected[j]);
    record_scratch_[j] = seller < m ? seller_records_[seller].balance : 0.0;
  }
  const double* balance = ledger.balances().data() + 2;
  for (std::size_t j = 0; j < report.selected.size(); ++j) {
    const double pay = report.collection_price * report.tau[j];
    payments += pay;
    int seller = report.selected[j];
    if (seller < 0 || seller >= ledger.num_sellers()) {
      AddViolation(InvariantKind::kLedgerConservation, report.round,
                   "ledger.seller_index",
                   "selected seller " + std::to_string(seller) +
                       " outside ledger account range",
                   static_cast<double>(seller));
      continue;
    }
    const double want = record_scratch_[j] + pay;
    seller_records_[static_cast<std::size_t>(seller)].balance = want;
    const double got = balance[seller];
    double residual = std::fabs(got - want);
    if (residual > tol * RelScale(got, want)) {
      AddViolation(InvariantKind::kLedgerConservation, report.round,
                   "ledger.seller_balance",
                   "seller " + std::to_string(seller) + " balance " +
                       Num(got) + ", want " + Num(want),
                   residual);
    }
  }
  expected_consumer_outflow_ += reward;
  expected_seller_inflow_ += payments;

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
  // Per-round conservation identity linking money flow to the reported
  // platform profit: p^J Στ − p Στ = Ω + C^J(Στ)  (Eq. 7).
  double aggregation_cost =
      game::PlatformCost(view.platform_cost, report.total_time);
  expect_eq("ledger.flow_identity", reward - payments,
            report.platform_profit + aggregation_cost);
}

Status InvariantChecker::AuditLedger(const Ledger& ledger) {
  const std::size_t before = violation_count_;
  const double tol = kLedgerTolerance;
  // Double-entry: the sum of all balances cancels to zero. The residual is
  // pure floating-point cancellation error, which grows with the total
  // money volume moved, so the tolerance scales with the cumulative flows
  // rather than the (zero) expected value.
  double net = ledger.NetPosition();
  double volume = ledger.ConsumerOutflow() + ledger.SellerInflow();
  if (std::fabs(net) > tol * std::max(1.0, volume)) {
    AddViolation(InvariantKind::kLedgerConservation, last_round_,
                 "ledger.net_position",
                 "net position " + Num(net) + " after moving " + Num(volume) +
                     " total",
                 std::fabs(net));
  }
  // Every seller holds exactly what the checked rounds paid it (balances
  // are slots 2.. of the ledger).
  const std::size_t m = static_cast<std::size_t>(ledger.num_sellers());
  if (seller_records_.size() < m) seller_records_.resize(m);
  const double* balance = ledger.balances().data() + 2;
  for (std::size_t i = 0; i < m; ++i) {
    const double want = seller_records_[i].balance;
    const double residual = std::fabs(balance[i] - want);
    if (residual > tol * RelScale(balance[i], want)) {
      AddViolation(InvariantKind::kLedgerConservation, last_round_,
                   "ledger.seller_balance",
                   "audit: seller " + std::to_string(i) + " balance " +
                       Num(balance[i]) + ", want " + Num(want),
                   residual);
    }
  }
  return Outcome(before, last_round_);
}

void InvariantChecker::CheckProfits(const EngineStateView& view,
                                    const RoundReport& report) {
  double tol = kLedgerTolerance;
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
  // The cost rows up to the first seller without one, gathered in a tight
  // first loop (cold M-sized reads; see CheckLedger).
  cost_scratch_.clear();
  for (int seller : report.selected) {
    if (view.seller_costs == nullptr || seller < 0 ||
        seller >= static_cast<int>(view.seller_costs->size())) {
      break;
    }
    cost_scratch_.push_back(
        (*view.seller_costs)[static_cast<std::size_t>(seller)]);
  }
  double psi_total = 0.0;
  for (std::size_t j = 0; j < cost_scratch_.size(); ++j) {
    int seller = report.selected[j];
    double psi =
        game::SellerProfit(report.collection_price, report.tau[j],
                           cost_scratch_[j], report.game_qualities[j]);
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
      double floor = -kIrEpsilon * std::max(1.0, std::fabs(payment));
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

void InvariantChecker::BuildSupply(const EngineStateView& view,
                                   const RoundReport& report) {
  const util::Interval& box = view.collection_price_bounds;
  const double t_cap = view.max_sensing_time;
  const double theta = view.platform_cost.theta;
  const double lambda = view.platform_cost.lambda;
  // Eq. (20) clamps member j's time to 0 below p = q̄_j b_j and to T above
  // p = q̄_j b_j + 2 q̄_j a_j T; in between it adds p·slope_j − offset_j.
  // kink_price_[e] holds event e's price while it is a kink inside the
  // box not yet placed, NaN otherwise.
  constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();
  double a = 0.0, b = 0.0, c = 0.0;  // Στ = a·p − b + c at box.lo
  kinks_.clear();
  kink_price_.assign(2 * sellers_.size(), kAbsent);
  for (std::size_t j = 0; j < sellers_.size(); ++j) {
    const GameSeller& s = sellers_[j];
    const double on = s.q * s.b;
    const double full = on + 2.0 * s.q * s.a * t_cap;
    const int event = 2 * static_cast<int>(j);
    if (box.lo >= full) {
      c += t_cap;
    } else if (box.lo > on) {
      a += s.slope;
      b += s.offset;
    }
    if (on > box.lo && on < box.hi) {
      kinks_.push_back({on, event});
      kink_price_[2 * j] = on;
    }
    if (full > box.lo && full < box.hi && std::isfinite(full)) {
      kinks_.push_back({full, event + 1});
      kink_price_[2 * j + 1] = full;
    }
  }
  // A proof's kink order replaces the sort when it verifies: every kink
  // exactly once, at nondecreasing prices.
  const game::SolveProof* proof = view.proof;
  std::string flaw;
  if (proof != nullptr && proof->kink_order.size() != kinks_.size()) {
    flaw = "proof orders " + std::to_string(proof->kink_order.size()) +
           " kinks, the round's game has " + std::to_string(kinks_.size());
  }
  kink_scratch_.resize(kinks_.size());
  for (std::size_t i = 0;
       proof != nullptr && flaw.empty() && i < kinks_.size(); ++i) {
    const int event = proof->kink_order[i];
    const double price =
        event >= 0 && static_cast<std::size_t>(event) < kink_price_.size()
            ? kink_price_[static_cast<std::size_t>(event)]
            : kAbsent;
    if (!(price == price) || (i > 0 && price < kink_scratch_[i - 1].price)) {
      flaw = "proof's kink " + std::to_string(i) + " (event " +
             std::to_string(event) + ") is absent, repeated or out of order";
      break;
    }
    kink_scratch_[i] = {price, event};
    kink_price_[static_cast<std::size_t>(event)] = kAbsent;
  }
  if (proof != nullptr && flaw.empty()) {
    kinks_.swap(kink_scratch_);
  } else {
    if (!flaw.empty()) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.kink_order", flaw, 0.0);
    }
    std::sort(kinks_.begin(), kinks_.end(),
              [](const Kink& x, const Kink& y) { return x.price < y.price; });
  }
  segments_.clear();
  double lo = box.lo;
  auto close = [&](double hi) {
    SupplySegment seg{lo, hi, a, b, c, 0.0, 1.0, 0.0};
    if (a > 0.0) {
      // Theorem 15 with the segment's aggregates (corrected constant).
      const double b_eff = b - c;
      seg.num = lambda * a - 2.0 * theta * a * b_eff - b_eff;
      seg.den = 2.0 * a * (1.0 + theta * a);
    }
    seg.end_supply = std::max(0.0, a * hi - b + c);
    segments_.push_back(seg);
  };
  for (const Kink& kink : kinks_) {
    if (kink.price != lo) {
      close(kink.price);
      lo = kink.price;
    }
    const GameSeller& s = sellers_[static_cast<std::size_t>(kink.event >> 1)];
    if ((kink.event & 1) == 0) {
      a += s.slope;
      b += s.offset;
    } else {
      a -= s.slope;
      b -= s.offset;
      c += t_cap;
    }
  }
  close(box.hi);
}

namespace {

/// The platform's best response at consumer price x.
struct Response {
  int pos;        // -1 box.lo, 2j segment j's interior optimum, 2j+1 its end
  double price;
  double supply;  // Στ at the price
  double value;   // Ω
};

/// The plain sweep over the platform's candidates: box.lo, then per
/// segment its interior optimum (when strictly inside the segment) and its
/// upper end; the first maximiser wins.
Response BestResponse(const std::vector<InvariantChecker::SupplySegment>& segs,
                      double box_lo, const game::PlatformCostParams& cost,
                      double x) {
  auto omega = [&](double p, double s) {
    return (x - p) * s - cost.theta * s * s - cost.lambda * s;
  };
  const InvariantChecker::SupplySegment& first = segs.front();
  const double s0 = std::max(0.0, first.a * box_lo - first.b + first.c);
  Response best{-1, box_lo, s0, omega(box_lo, s0)};
  for (std::size_t j = 0; j < segs.size(); ++j) {
    const InvariantChecker::SupplySegment& seg = segs[j];
    const int pos = 2 * static_cast<int>(j);
    if (seg.a > 0.0) {
      const double p = (x * seg.a - seg.num) / seg.den;
      if (p > seg.lo && p < seg.hi) {
        const double s = std::max(0.0, seg.a * p - seg.b + seg.c);
        const double v = omega(p, s);
        if (v > best.value) best = {pos, p, s, v};
      }
    }
    const double v = omega(seg.hi, seg.end_supply);
    if (v > best.value) best = {pos + 1, seg.hi, seg.end_supply, v};
  }
  return best;
}

}  // namespace

void InvariantChecker::CheckStationarity(const EngineStateView& view,
                                         const RoundReport& report) {
  // Round-1 exploration plays the fixed (p_max, τ^0) opening, not an
  // equilibrium — there is nothing stationary to verify. A voided round
  // traded nothing (zero tau, zero flows), so no stage played either.
  if (report.initial_exploration || report.voided) return;
  if (view.seller_costs == nullptr) return;

  double tol = kStationarityTolerance;
  double pj = report.consumer_price;
  double p = report.collection_price;

  // The round's game must be one GameConfig::Validate accepts (in its
  // order): every closed form below divides by q̄_i a_i.
  auto config_error = [&](const std::string& detail, double magnitude) {
    AddViolation(InvariantKind::kStationarity, report.round,
                 "stationarity.config", detail, magnitude);
  };
  // One pass over the raw costs gathers the coalition.
  sellers_.clear();
  for (int seller : report.selected) {
    if (seller < 0 ||
        seller >= static_cast<int>(view.seller_costs->size())) {
      config_error("selected seller " + std::to_string(seller) +
                       " has no cost parameters",
                   static_cast<double>(seller));
      return;
    }
    const game::SellerCostParams& cost =
        (*view.seller_costs)[static_cast<std::size_t>(seller)];
    // SellerCostParams::Validate's rule, inline: it runs per seller.
    if (!(std::isfinite(cost.a) && cost.a > 0.0 && std::isfinite(cost.b) &&
          cost.b >= 0.0)) {
      config_error("round game not solvable: " + cost.Validate().ToString(),
                   0.0);
      return;
    }
    sellers_.push_back({0.0, cost.a, cost.b, 0.0, cost.b / (2.0 * cost.a)});
  }
  for (std::size_t j = 0; j < sellers_.size(); ++j) {
    const double q = report.game_qualities[j];
    if (!std::isfinite(q) || !(q > 0.0) || q > 1.0) {
      config_error("round game not solvable: learned quality " + Num(q) +
                       " outside (0, 1]",
                   q);
      return;
    }
    sellers_[j].q = q;
    sellers_[j].slope = 1.0 / (2.0 * q * sellers_[j].a);
  }
  util::Status valid = view.platform_cost.Validate();
  if (valid.ok()) valid = view.valuation.Validate();
  if (!valid.ok()) {
    config_error("round game not solvable: " + valid.ToString(), 0.0);
    return;
  }
  if (!view.consumer_price_bounds.valid() ||
      view.consumer_price_bounds.lo < 0.0 ||
      !view.collection_price_bounds.valid() ||
      view.collection_price_bounds.lo < 0.0 ||
      !(view.max_sensing_time > 0.0)) {
    config_error("round game not solvable: invalid price boxes or T", 0.0);
    return;
  }

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
  const double foc_tol = tol * std::max(1.0, std::fabs(p));
  bool all_interior = true;
  // Theorem 15's aggregates A = Σ 1/(2 q̄_i a_i), B = Σ b_i/(2 a_i), the
  // mean quality and the supply Στ sold at p, in the same pass.
  double a_sum = 0.0, b_sum = 0.0, quality_sum = 0.0, supply = 0.0;
  for (std::size_t j = 0; j < contracted.size(); ++j) {
    double tau = contracted[j];
    const GameSeller& cost = sellers_[j];
    const double q = cost.q;
    a_sum += cost.slope;
    b_sum += cost.offset;
    quality_sum += q;
    double best =
        std::min(t_cap, std::max(0.0, p * cost.slope - cost.offset));
    supply += best;
    double residual = std::fabs(tau - best);
    if (residual > tol * std::max(1.0, std::fabs(best))) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.tau",
                   "seller " + std::to_string(report.selected[j]) + " tau " +
                       Num(tau) + ", best response " + Num(best),
                   residual);
    }
    // KKT check of Thm. 14: at the reported τ either the first-order
    // condition p = q̄(2aτ + b) holds, or the marginal profit points into
    // the active box bound. Classifying by the FOC sign (rather than by
    // distance to the bounds) keeps tiny-but-interior optima legal.
    // (Sellers sit in all three cases, so the classification is computed
    // without branching on it; only a violation branches.)
    double foc = p - q * (2.0 * cost.a * tau + cost.b);
    const bool interior = std::fabs(foc) <= foc_tol;
    all_interior = all_interior && interior && tau > 0.0 && tau < t_cap;
    // Marginal profit positive at τ: only consistent with the τ = T cap.
    if (!interior && foc > 0.0 && tau < t_cap - tol * std::max(1.0, t_cap)) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.seller_foc",
                   "seller " + std::to_string(report.selected[j]) + " tau " +
                       Num(tau) +
                       " below the cap despite positive marginal profit " +
                       Num(foc),
                   foc);
    }
    // Marginal profit negative at τ: only consistent with τ = 0.
    if (!interior && !(foc > 0.0) && tau > tol) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.seller_foc",
                   "seller " + std::to_string(report.selected[j]) + " tau " +
                       Num(tau) + " > 0 despite negative marginal profit " +
                       Num(foc),
                   -foc);
    }
  }

  // Stage 2 (Eq. 7): the platform's price is profit-maximising against the
  // sellers' best responses. Value comparison (the argmax can sit on a
  // profit plateau) against the plain sweep over the supply segments.
  BuildSupply(view, report);
  const util::Interval& p_box = view.collection_price_bounds;
  const Response star = BestResponse(segments_, p_box.lo, view.platform_cost,
                                     pj);
  double omega_at = game::PlatformProfit(pj, p, supply, view.platform_cost);
  if (star.value - omega_at > tol * std::max(1.0, std::fabs(star.value))) {
    AddViolation(InvariantKind::kStationarity, report.round,
                 "stationarity.platform_opt",
                 "platform profit " + Num(omega_at) + " at p=" + Num(p) +
                     " improvable to " + Num(star.value) + " at p=" +
                     Num(star.price),
                 star.value - omega_at);
  }
  // The solve's Stage-2 proof names the candidate it played: that
  // candidate's price must be the committed one.
  if (view.proof != nullptr) {
    const int pos = view.proof->platform_pos;
    const int n = static_cast<int>(segments_.size());
    double claimed = std::numeric_limits<double>::quiet_NaN();
    if (pos == -1) {
      claimed = p_box.lo;
    } else if (pos >= 0 && pos < 2 * n) {
      const SupplySegment& seg = segments_[static_cast<std::size_t>(pos >> 1)];
      claimed = (pos & 1) != 0 ? seg.hi : (pj * seg.a - seg.num) / seg.den;
    }
    if (!(std::fabs(claimed - p) <= tol * std::max(1.0, std::fabs(p)))) {
      AddViolation(InvariantKind::kStationarity, report.round,
                   "stationarity.platform_proof",
                   "proof names sweep position " + std::to_string(pos) +
                       " of " + std::to_string(2 * n) + " at p=" +
                       Num(claimed) + ", committed p=" + Num(p),
                   std::fabs(claimed - p));
    }
  }
  // Interior regime: the corrected Theorem-15 closed form (the stationary
  // point of Eq. 7) must reproduce the price.
  if (all_interior) {
    const double theta = view.platform_cost.theta;
    const double c = view.platform_cost.lambda * a_sum -
                     2.0 * theta * a_sum * b_sum - b_sum;
    double p_interior = p_box.Clamp((pj * a_sum - c) /
                                    (2.0 * a_sum * (1.0 + theta * a_sum)));
    bool unclamped =
        p_interior > p_box.lo + tol && p_interior < p_box.hi - tol;
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

  // Stage 1 (Eq. 8 / Thm. 16). After a default re-settlement p^J stays
  // committed from the pre-fault coalition, so it is not optimal for the
  // survivor game — the consumer optimality claim only applies to
  // un-resettled rounds.
  if (report.resettled) return;
  CheckConsumerPrice(view, report,
                     quality_sum / static_cast<double>(contracted.size()),
                     supply);
}

void InvariantChecker::CheckConsumerPrice(const EngineStateView& view,
                                          const RoundReport& report,
                                          double mean_quality,
                                          double supply) {
  constexpr double kNone = -std::numeric_limits<double>::infinity();
  const double tol = kStationarityTolerance;
  const double pj = report.consumer_price;
  const double x_lo = view.consumer_price_bounds.lo;
  const double x_hi = view.consumer_price_bounds.hi;
  const double p_lo = view.collection_price_bounds.lo;
  const double theta = view.platform_cost.theta;
  const double omega = view.valuation.omega;
  const double qbar = mean_quality;
  auto profit = [&](double x, double s) {
    return game::ConsumerProfit(x, qbar, s, view.valuation);
  };
  auto respond = [&](double x) {
    return BestResponse(segments_, p_lo, view.platform_cost, x);
  };

  // The consumer's price must reach the supremum of the anticipated profit
  // F(x) = ω ln(1 + q̄S(x)) − xS(x) over the consumer box (Def. 13), S(x)
  // the supply of the platform's response, up to `slack`. ln is concave,
  // so its tangent at the committed supply s bounds it:
  // ω ln(1 + q̄S) <= t0 + t1·S, hence F(x) <= t0 + (t1 − x)·S(x).
  const double f_at = profit(pj, supply);
  const double slack = tol * std::max(1.0, std::fabs(f_at));
  const double bar = f_at + slack;
  const double t1 = omega * qbar / (1.0 + qbar * supply);
  const double t0 = f_at + (pj - t1) * supply;

  // The platform plays box.lo, segment g's interior optimum (only on the
  // window [lo_g, hi_g] of consumer prices where it lies inside the
  // segment, with supply Θ_g·x − Λ_g) or segment g's upper end (only for
  // x >= hi_g, with a constant supply; below, the interior optimum or the
  // lower end beats it). A flat segment's candidates lose to the lower
  // end. Bound each domain: the arc's bound is a concave quadratic in x,
  // a line's falls in x.
  struct Arc {
    double lo, hi;       // window
    double slope, base;  // supply Θ·x − Λ on the window
  };
  auto arc_of = [&](const SupplySegment& seg) {
    const double inv_a = 1.0 / seg.a;
    const double inv_denom = 1.0 / (2.0 * (1.0 + theta * seg.a));
    return Arc{(seg.lo * seg.den + seg.num) * inv_a,
               (seg.hi * seg.den + seg.num) * inv_a, seg.a * inv_denom,
               seg.num * inv_denom + (seg.b - seg.c)};
  };
  const std::size_t n = segments_.size();
  const SupplySegment& first = segments_.front();
  const double s0 = std::max(0.0, first.a * p_lo - first.b + first.c);
  bounds_.assign(n + 1, kNone);
  bounds_[0] = t0 + (t1 - x_lo) * s0;
  // Per segment, the arc's and the line's parts.
  auto arc_bound = [&](const Arc& arc) {
    const double a0 = std::max(arc.lo, x_lo), a1 = std::min(arc.hi, x_hi);
    if (!(arc.lo < arc.hi) || !(a0 < a1)) return kNone;
    const double x =
        std::min(a1, std::max(a0, 0.5 * (t1 + arc.base / arc.slope)));
    return t0 + (t1 - x) * (arc.slope * x - arc.base);
  };
  auto line_bound = [&](const Arc& arc, const SupplySegment& seg) {
    if (!(arc.hi < x_hi)) return kNone;
    return t0 + (t1 - std::max(arc.hi, x_lo)) * seg.end_supply;
  };
  for (std::size_t g = 0; g < n; ++g) {
    const SupplySegment& seg = segments_[g];
    if (!(seg.a > 0.0)) continue;
    const Arc arc = arc_of(seg);
    bounds_[g + 1] = std::max(arc_bound(arc), line_bound(arc, seg));
  }

  // Every domain whose bound passes the bar holds no better price. In the
  // others (solves the certificate did not settle, fabricated reports, a
  // flawed certificate or partition) find where the platform really plays
  // the candidate, by bisecting its monotone response (Topkis) with the
  // sweep above, and take F's maximum there: a line's at its left end, an
  // arc's at the segment's Theorem-16 point clamped into it.
  double best = f_at, best_x = pj;
  int best_pos = -2;
  auto consider = [&](double x, int pos) {
    const Response r = respond(x);
    if (r.pos != pos) return;
    const double f = profit(x, r.supply);
    if (f > best) {
      best = f;
      best_x = x;
      best_pos = pos;
    }
  };
  // First x of (lo, hi] where the response's position is at least `pos`
  // (or, with `above`, exceeds it), given it is not at lo and is at hi.
  auto boundary = [&](int pos, bool above, double lo, double hi) {
    for (int i = 0; i < 200; ++i) {
      const double mid = lo + 0.5 * (hi - lo);
      if (!(mid > lo && mid < hi) ||
          hi - lo <= 1e-13 * std::max(1.0, std::fabs(hi))) {
        break;
      }
      const int at = respond(mid).pos;
      ((above ? at > pos : at >= pos) ? hi : lo) = mid;
    }
    return std::make_pair(lo, hi);
  };
  // F falls along a line of supply s from x on, so only [x, the point where
  // its bound meets the bar] matters; the platform plays the line from its
  // first position there on.
  auto search_line = [&](int pos, double x, double s) {
    if (!(t0 + (t1 - x) * s > bar)) return;
    const int at = respond(x).pos;
    if (at == pos) {
      consider(x, pos);
    } else if (at < pos) {
      double right = x_hi;
      if (s > 0.0) right = std::min(right, t1 - (bar - t0) / s);
      if (right > x && respond(right).pos >= pos) {
        consider(boundary(pos, false, x, right).second, pos);
      }
    }
  };
  if (bounds_[0] > bar && respond(x_lo).pos == -1) consider(x_lo, -1);
  for (std::size_t g = 0; g < n; ++g) {
    if (!(bounds_[g + 1] > bar)) continue;
    const SupplySegment& seg = segments_[g];
    const Arc arc = arc_of(seg);
    const int pos = 2 * static_cast<int>(g);
    if (arc_bound(arc) > bar) {
      // Theorem 16 with the segment's aggregates: F along the arc is
      // concave, so its maximum over where the arc plays is the point
      // clamped there.
      const double a0 = std::max(arc.lo, x_lo), a1 = std::min(arc.hi, x_hi);
      const double tt = qbar * arc.base - 2.0;
      const double delta = tt * tt + 8.0 * arc.slope * omega * qbar * qbar;
      double x = (3.0 * qbar * arc.base + std::sqrt(delta) - 2.0) /
                 (4.0 * qbar * arc.slope);
      x = std::min(a1, std::max(a0, x == x ? x : a0));
      const int at = respond(x).pos;
      if (at == pos) {
        consider(x, pos);
      } else if (at < pos) {
        if (respond(a1).pos >= pos) {
          consider(boundary(pos, false, x, a1).second, pos);
        }
      } else if (respond(a0).pos <= pos) {
        consider(boundary(pos, true, a0, x).first, pos);
      }
    }
    if (line_bound(arc, seg) > bar) {
      search_line(pos + 1, std::max(arc.hi, x_lo), seg.end_supply);
    }
  }
  if (best - f_at > slack) {
    AddViolation(InvariantKind::kStationarity, report.round,
                 "stationarity.consumer_opt",
                 "consumer profit " + Num(f_at) + " at pJ=" + Num(pj) +
                     " below " + Num(best) + " at pJ=" + Num(best_x) +
                     " (platform sweep position " + std::to_string(best_pos) +
                     ")",
                 best - f_at);
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
    if (seller_records_.size() < num_arms) seller_records_.resize(num_arms);
    // A selected seller delivered (DeliveredDataSellers) unless the round
    // was voided or a corrupted-report fault names it. The faults are
    // marked by id once, so each membership test is O(1); a round without
    // such a fault reads no marks.
    bool corrupted = false;
    for (const FaultEvent& e : report.faults) {
      corrupted = corrupted || e.kind == FaultKind::kCorruptedReport;
    }
    if (corrupted) {
      if (corrupted_mark_.size() < num_arms) {
        corrupted_mark_.resize(num_arms, 0);
      }
      ++mark_epoch_;
      for (const FaultEvent& e : report.faults) {
        if (e.kind == FaultKind::kCorruptedReport && e.seller >= 0 &&
            static_cast<std::size_t>(e.seller) < num_arms) {
          corrupted_mark_[static_cast<std::size_t>(e.seller)] = mark_epoch_;
        }
      }
    }
    auto was_delivered = [&](int seller) {
      if (report.voided) return false;
      if (!corrupted) return true;
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
    // Eq. (19)'s radius numerator is shared by every arm: one log a round.
    const double scaled_log = bank.scaled_log();
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
      std::uint64_t& prev =
          seller_records_[static_cast<std::size_t>(seller)].observations;
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
      prev = arm.observations;
      if (!(arm.mean >= -1e-9 && arm.mean <= 1.0 + 1e-9)) {
        AddViolation(InvariantKind::kBanditSanity, report.round,
                     "bandit.mean_range",
                     "seller " + std::to_string(seller) +
                         " mean quality estimate " + Num(arm.mean) +
                         " outside [0, 1]",
                     std::fabs(arm.mean - 0.5) - 0.5);
      }
      if (arm.observations > 0 &&
          !std::isfinite(arm.mean +
                         std::sqrt(scaled_log /
                                   static_cast<double>(arm.observations)))) {
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
        kLedgerTolerance * std::max(1.0, std::fabs(view.oracle_round_revenue));
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
