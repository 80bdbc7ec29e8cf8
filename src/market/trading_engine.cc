#include "market/trading_engine.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "game/profit.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/telemetry_observer.h"
#include "obs/tracer.h"

namespace cdt {
namespace market {

using util::Result;
using util::Status;

namespace {

// Price interval must be finite, non-empty, with a non-negative floor
// (NaN-safe). `what` names the interval in error messages.
Status ValidatePriceBounds(const util::Interval& bounds,
                           const std::string& what) {
  if (!std::isfinite(bounds.lo) || !std::isfinite(bounds.hi) ||
      !bounds.valid() || bounds.lo < 0.0) {
    return Status::InvalidArgument(
        what + " must be a finite interval with 0 <= lo <= hi");
  }
  return Status::OK();
}

// Appends a fault event to the round report; RunRound copies the round's
// events into the run's fault log once the round is done.
void LogFault(RoundReport* report, FaultKind kind, int seller,
              double severity, bool recovered) {
  FaultEvent event;
  event.round = report->round;
  event.kind = kind;
  event.seller = seller;
  event.severity = severity;
  event.recovered = recovered;
  report->faults.push_back(event);
}

#if CDT_TELEMETRY
// Handle getters for CDT_SPAN_TIMED: each site caches the result in a
// function-local static, so the registry mutex is touched once per site.
obs::Histogram* RoundLatencyHistogram() {
  return obs::registry().GetHistogram(
      "cdt_round_latency_seconds",
      "End-to-end wall-clock seconds of one trading round.",
      obs::DefaultLatencyBuckets());
}

obs::Histogram* BanditSelectHistogram() {
  return obs::registry().GetHistogram(
      "cdt_bandit_select_seconds",
      "Wall-clock seconds of the CMAB seller-selection step.",
      obs::DefaultLatencyBuckets());
}

obs::Histogram* EngineCollectHistogram() {
  return obs::registry().GetHistogram(
      "cdt_engine_collect_seconds",
      "Wall-clock seconds of the data-collection step of a settled round.",
      obs::DefaultLatencyBuckets());
}
#endif  // CDT_TELEMETRY

}  // namespace

void CollectBuffers::Recycle() {
  for (std::size_t j = 0; j < batches.size(); ++j) {
    rows[j] = std::move(batches[j]);
  }
  batches.clear();
}

void CollectCoalition(const FaultInjector* injector,
                      const std::vector<SellerFaultDraw>& fault_draws,
                      bandit::QualityEnvironment* environment,
                      ReliabilityTracker* tracker, RoundReport* report,
                      CollectBuffers* buffers) {
  const std::int64_t round = report->round;
  const std::vector<int>& coalition = report->selected;
  for (int seller : coalition) {
    tracker->Prefetch(seller);
    environment->PrefetchSeller(seller);
  }
  std::vector<std::vector<double>>& rows = buffers->rows;
  environment->ObserveSellersInto(coalition, &rows);

  std::vector<int>& learners = buffers->learners;
  std::vector<std::vector<double>>& batches = buffers->batches;
  learners.clear();
  batches.clear();
  learners.reserve(coalition.size());
  batches.reserve(coalition.size());
  const bool armed = injector != nullptr;
  for (std::size_t j = 0; j < coalition.size(); ++j) {
    const int seller = coalition[j];
    std::vector<double>& batch = rows[j];
    if (armed && fault_draws[j].outcome == DeliveryOutcome::kCorrupted) {
      injector->Corrupt(round, seller, &batch);
    }
    if (!ValidObservationBatch(batch)) {
      report->degraded = true;
      tracker->RecordFault(seller, round, FaultKind::kCorruptedReport);
      LogFault(report, FaultKind::kCorruptedReport, seller, 0.0, true);
      continue;
    }
    double sum = 0.0;
    for (double q : batch) sum += q;
    report->observed_quality_revenue += sum;
    report->expected_quality_revenue +=
        static_cast<double>(environment->num_pois()) *
        environment->effective_quality(seller);
    tracker->RecordDelivery(
        seller, round,
        armed && fault_draws[j].outcome == DeliveryOutcome::kPartial);
    learners.push_back(seller);
    batches.push_back(std::move(batch));
    // Keep the moved-from rows in front, where Recycle refills them; the
    // row swapped back is one already judged.
    rows[j].swap(rows[batches.size() - 1]);
  }
}

Status EngineConfig::Validate(int num_sellers) const {
  CDT_RETURN_NOT_OK(job.Validate());
  if (num_selected <= 0 || num_selected > num_sellers) {
    return Status::InvalidArgument("need 1 <= K <= M");
  }
  if (static_cast<int>(seller_costs.size()) != num_sellers) {
    return Status::InvalidArgument("need one cost parameter set per seller");
  }
  for (const game::SellerCostParams& s : seller_costs) {
    CDT_RETURN_NOT_OK(s.Validate());
  }
  CDT_RETURN_NOT_OK(platform_cost.Validate());
  CDT_RETURN_NOT_OK(valuation.Validate());
  CDT_RETURN_NOT_OK(
      ValidatePriceBounds(consumer_price_bounds, "consumer price bounds"));
  CDT_RETURN_NOT_OK(
      ValidatePriceBounds(collection_price_bounds, "collection price bounds"));
  if (!(initial_tau > 0.0) || initial_tau > job.round_duration) {
    return Status::InvalidArgument("initial_tau must lie in (0, T]");
  }
  if (!std::isfinite(quality_floor) || !(quality_floor > 0.0) ||
      quality_floor > 1.0) {
    return Status::InvalidArgument("quality_floor must be in (0, 1]");
  }
  if (consumer_budget < 0.0) {
    return Status::InvalidArgument("consumer_budget must be >= 0");
  }
  CDT_RETURN_NOT_OK(faults.Validate());
  CDT_RETURN_NOT_OK(recovery.Validate());
  return Status::OK();
}

TradingEngine::TradingEngine(EngineConfig config,
                             bandit::QualityEnvironment* environment,
                             std::unique_ptr<bandit::SelectionPolicy> policy)
    : config_(std::move(config)),
      environment_(environment),
      policy_(std::move(policy)),
      ledger_(environment_->num_sellers()),
      reliability_(environment_->num_sellers(), config_.recovery) {}

Result<std::unique_ptr<TradingEngine>> TradingEngine::Create(
    EngineConfig config, bandit::QualityEnvironment* environment,
    std::unique_ptr<bandit::SelectionPolicy> policy) {
  if (environment == nullptr) {
    return Status::InvalidArgument("environment must not be null");
  }
  if (policy == nullptr) {
    return Status::InvalidArgument("policy must not be null");
  }
  CDT_RETURN_NOT_OK(config.Validate(environment->num_sellers()));
  if (policy->num_sellers() != environment->num_sellers()) {
    return Status::InvalidArgument(
        "policy and environment disagree on the seller count");
  }
  if (config.job.num_pois != environment->num_pois()) {
    return Status::InvalidArgument(
        "job and environment disagree on the PoI count");
  }
  bool check_invariants = config.check_invariants;
  auto engine = std::unique_ptr<TradingEngine>(
      new TradingEngine(std::move(config), environment, std::move(policy)));
  // Price from the policy's bank when it has one (see
  // SelectionPolicy::estimator); otherwise keep a private Eq. (17)-(18)
  // bank fed the round's batches, whose exploration constant is irrelevant
  // (only means are consumed) but must be positive.
  engine->bank_ = engine->policy_->estimator();
  if (engine->bank_ == nullptr) {
    Result<bandit::EstimatorBank> bank =
        bandit::EstimatorBank::Create(environment->num_sellers(), 1.0);
    if (!bank.ok()) return bank.status();
    engine->owned_bank_ =
        std::make_unique<bandit::EstimatorBank>(std::move(bank).value());
    engine->bank_ = engine->owned_bank_.get();
  }
  engine->oracle_round_revenue_ =
      static_cast<double>(engine->config_.job.num_pois) *
      environment->OptimalSetQuality(engine->config_.num_selected);
  if (engine->config_.faults.any()) {
    engine->injector_ = std::make_unique<FaultInjector>(engine->config_.faults);
  }
  if (check_invariants) {
    engine->checker_ = static_cast<InvariantChecker*>(
        engine->AddObserver(std::make_unique<InvariantChecker>()));
  }
#if CDT_TELEMETRY
  // Metrics publisher; dormant (one atomic load per round) until
  // obs::Enable() arms the runtime. Reads engine state only, so the
  // economics are bit-for-bit identical with telemetry on or off.
  engine->AddObserver(std::make_unique<obs::TelemetryObserver>());
#endif
  return engine;
}

RoundObserver* TradingEngine::AddObserver(
    std::unique_ptr<RoundObserver> observer) {
  observers_.push_back(std::move(observer));
  return observers_.back().get();
}

double TradingEngine::GameQuality(int seller) const {
  double q;
  if (config_.use_true_qualities_for_game) {
    q = environment_->effective_quality(seller);
  } else {
    const bandit::ArmState& arm = bank_->arm(seller);
    q = arm.observations > 0 ? arm.mean : config_.quality_floor;
  }
  return std::min(1.0, std::max(config_.quality_floor, q));
}

Result<const game::StackelbergSolver*> TradingEngine::PrepareSolver(
    const std::vector<int>& selected) {
  solve_sellers_.clear();
  solve_qualities_.clear();
  solve_sellers_.reserve(selected.size());
  solve_qualities_.reserve(selected.size());
  for (int i : selected) {
    solve_sellers_.push_back(
        config_.seller_costs[static_cast<std::size_t>(i)]);
    solve_qualities_.push_back(GameQuality(i));
  }
  if (solver_.has_value()) {
    CDT_RETURN_NOT_OK(
        solver_->ResetCoalition(&solve_sellers_, &solve_qualities_));
    return &*solver_;
  }
  game::GameConfig game_config;
  game_config.sellers = std::move(solve_sellers_);
  game_config.qualities = std::move(solve_qualities_);
  game_config.platform = config_.platform_cost;
  game_config.valuation = config_.valuation;
  game_config.consumer_price_bounds = config_.consumer_price_bounds;
  game_config.collection_price_bounds = config_.collection_price_bounds;
  game_config.max_sensing_time = config_.job.round_duration;
  Result<game::StackelbergSolver> solver =
      game::StackelbergSolver::Create(std::move(game_config));
  if (!solver.ok()) return solver.status();
  solver_.emplace(std::move(solver).value());
  return &*solver_;
}

void TradingEngine::RecomputeProfits(RoundReport* report) const {
  const std::size_t k = report->selected.size();
  report->total_time = game::TotalTime(report->tau);
  double quality_sum = 0.0;
  for (double q : report->game_qualities) quality_sum += q;
  double mean_quality =
      k > 0 ? quality_sum / static_cast<double>(k) : 0.0;
  report->consumer_profit = game::ConsumerProfit(
      report->consumer_price, mean_quality, report->total_time,
      config_.valuation);
  report->platform_profit = game::PlatformProfit(
      report->consumer_price, report->collection_price, report->total_time,
      config_.platform_cost);
  report->seller_profits.assign(k, 0.0);
  report->seller_profit_total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    report->seller_profits[j] = game::SellerProfit(
        report->collection_price, report->tau[j],
        config_.seller_costs[static_cast<std::size_t>(report->selected[j])],
        report->game_qualities[j]);
    report->seller_profit_total += report->seller_profits[j];
  }
}

void TradingEngine::VoidRound(RoundReport* report) {
  report->degraded = true;
  report->voided = true;
  if (report->contracted_tau.empty()) report->contracted_tau = report->tau;
  std::fill(report->tau.begin(), report->tau.end(), 0.0);
  RecomputeProfits(report);
  report->expected_quality_revenue = 0.0;
  report->observed_quality_revenue = 0.0;
  for (FaultEvent& e : report->faults) e.recovered = false;
}

Result<RoundReport> TradingEngine::RunRound() {
  if (next_round_ > config_.job.num_rounds) {
    return Status::FailedPrecondition("all rounds already executed");
  }
  std::int64_t t = next_round_;
  CDT_SPAN_TIMED("round", RoundLatencyHistogram);

  {
    CDT_SPAN_TIMED("bandit.select", BanditSelectHistogram);
    CDT_RETURN_NOT_OK(policy_->SelectRoundInto(t, &selected_scratch_));
  }
  // The scratch is the round's working selection; fault paths may replace
  // it wholesale (quarantine / resettle), which is fine — it regrows once.
  std::vector<int>& selected = selected_scratch_;
  if (selected.empty()) {
    return Status::Internal("policy selected no sellers");
  }

  RoundReport report;
  report.round = t;
  proof_valid_ = false;

  // Quarantine gate: sellers whose circuit breaker is open — and sellers
  // who departed via SetSellerActive — sit out the round, unless dropping
  // them would empty the coalition entirely, in which case the round
  // proceeds unfiltered (degrade, never deadlock). Breaker drops are
  // logged as kQuarantine faults; departures are not faults and leave the
  // round's fault record untouched. With no injector and no departures the
  // clean path is untouched.
  if (injector_ != nullptr || inactive_count_ > 0) {
    CDT_SPAN("engine.quarantine_gate");
    std::vector<int> admitted;
    std::vector<int> quarantined;
    bool departed_drop = false;
    admitted.reserve(selected.size());
    for (int seller : selected) {
      if (!seller_active(seller)) {
        departed_drop = true;
      } else if (reliability_.Available(seller, t)) {
        admitted.push_back(seller);
      } else {
        quarantined.push_back(seller);
      }
    }
    if (!admitted.empty() && (!quarantined.empty() || departed_drop)) {
      selected = std::move(admitted);
      for (int seller : quarantined) {
        reliability_.RecordQuarantineDrop(seller);
        LogFault(&report, FaultKind::kQuarantine, seller, 0.0, true);
      }
    }
  }

  report.selected = selected;
  report.initial_exploration =
      selected.size() > static_cast<std::size_t>(config_.num_selected);

  if (report.initial_exploration) {
    // Algorithm 1, steps 2-4: τ_i = τ^0, p = p_max, and p^J chosen as the
    // smallest price with non-negative platform profit (break-even):
    //   (p^J − p)Στ − θ(Στ)² − λΣτ = 0  ⇒  p^J = p + θΣτ + λ.
    double p = config_.collection_price_bounds.hi;
    report.tau.assign(selected.size(), config_.initial_tau);
    report.total_time = game::TotalTime(report.tau);
    double pj = p + config_.platform_cost.theta * report.total_time +
                config_.platform_cost.lambda;
    pj = std::max(pj, config_.consumer_price_bounds.lo);
    report.collection_price = p;
    report.consumer_price = pj;

    double quality_sum = 0.0;
    report.seller_profits.resize(selected.size());
    report.game_qualities.resize(selected.size());
    for (std::size_t j = 0; j < selected.size(); ++j) {
      double q = GameQuality(selected[j]);
      report.game_qualities[j] = q;
      quality_sum += q;
      report.seller_profits[j] = game::SellerProfit(
          p, report.tau[j],
          config_.seller_costs[static_cast<std::size_t>(selected[j])], q);
    }
    double mean_quality = quality_sum / static_cast<double>(selected.size());
    report.consumer_profit = game::ConsumerProfit(
        pj, mean_quality, report.total_time, config_.valuation);
    report.platform_profit = game::PlatformProfit(
        pj, p, report.total_time, config_.platform_cost);
  } else {
    // Regular round: play the three-stage HS game among the consumer, the
    // platform, and the selected sellers (Algorithm 1, step 11). The
    // solver workspace is reused round to round — full validation ran when
    // it was first built; only the learned qualities are re-checked.
    Result<const game::StackelbergSolver*> solver = PrepareSolver(selected);
    if (!solver.ok()) return solver.status();
    report.game_qualities = solver.value()->config().qualities;
    // The proof is only for the checker; disarmed rounds skip filling it.
    proof_valid_ = checker_ != nullptr;
    game::StrategyProfile profile =
        solver.value()->Solve(proof_valid_ ? &solve_proof_ : nullptr);
    report.consumer_price = profile.consumer_price;
    report.collection_price = profile.collection_price;
    report.tau = std::move(profile.tau);
    report.total_time = profile.total_time;
    report.consumer_profit = profile.consumer_profit;
    report.platform_profit = profile.platform_profit;
    report.seller_profits = std::move(profile.seller_profits);
  }
  for (double psi : report.seller_profits) report.seller_profit_total += psi;

  // Fault plan: one deterministic outcome draw per committed seller.
  std::vector<SellerFaultDraw> draws;
  bool have_defaults = false;
  if (injector_ != nullptr) {
    draws.resize(selected.size());
    for (std::size_t j = 0; j < selected.size(); ++j) {
      draws[j] = injector_->DrawSeller(t, selected[j]);
      if (draws[j].outcome == DeliveryOutcome::kDefaulted) {
        have_defaults = true;
      }
    }
  }

  // Seller defaults: the coalition shrinks to the survivors and the round
  // is re-settled at the committed consumer price — Stage 2 and 3 re-solve
  // over the survivor game, so Theorem 14-16 stationarity keeps holding
  // for the delivered coalition. If nobody survives the round is voided.
  if (have_defaults) {
    CDT_SPAN("engine.resettle");
    report.degraded = true;
    proof_valid_ = false;  // Stage 2 and 3 re-solve without a proof
    std::vector<int> survivors;
    std::vector<SellerFaultDraw> survivor_draws;
    survivors.reserve(selected.size());
    survivor_draws.reserve(selected.size());
    for (std::size_t j = 0; j < selected.size(); ++j) {
      if (draws[j].outcome == DeliveryOutcome::kDefaulted) {
        reliability_.RecordFault(selected[j], t, FaultKind::kSellerDefault);
        LogFault(&report, FaultKind::kSellerDefault, selected[j], 0.0, true);
      } else {
        survivors.push_back(selected[j]);
        survivor_draws.push_back(draws[j]);
      }
    }
    if (survivors.empty()) {
      VoidRound(&report);
    } else if (report.initial_exploration) {
      // Exploration plays fixed prices; just drop the defaulters. The
      // break-even p^J was set for the full coalition, so the platform
      // keeps a non-negative margin on the shrunken one.
      report.resettled = true;
      selected = std::move(survivors);
      draws = std::move(survivor_draws);
      report.selected = selected;
      report.tau.assign(selected.size(), config_.initial_tau);
      report.game_qualities.resize(selected.size());
      for (std::size_t j = 0; j < selected.size(); ++j) {
        report.game_qualities[j] = GameQuality(selected[j]);
      }
      RecomputeProfits(&report);
    } else {
      // Regular round: hold the consumer to its committed p^J and re-run
      // the platform/seller stages over the survivors.
      Result<const game::StackelbergSolver*> solver =
          PrepareSolver(survivors);
      if (!solver.ok()) {
        VoidRound(&report);
      } else {
        report.resettled = true;
        selected = std::move(survivors);
        draws = std::move(survivor_draws);
        report.selected = selected;
        report.game_qualities = solver.value()->config().qualities;
        report.collection_price =
            solver.value()->PlatformBestPrice(report.consumer_price);
        report.tau =
            solver.value()->SellerBestTimes(report.collection_price);
        RecomputeProfits(&report);
      }
    }
  }

  // Partial delivery: the seller senses only a fraction of its contracted
  // τ* and is paid pro-rata. Ψ is concave with Ψ(0) = 0, so the pro-rated
  // profit stays non-negative and IR survives the degradation.
  if (!report.voided && injector_ != nullptr) {
    bool any_partial = false;
    for (std::size_t j = 0; j < report.selected.size(); ++j) {
      if (draws[j].outcome == DeliveryOutcome::kPartial &&
          report.tau[j] > 0.0) {
        any_partial = true;
        break;
      }
    }
    if (any_partial) {
      report.degraded = true;
      report.contracted_tau = report.tau;
      for (std::size_t j = 0; j < report.selected.size(); ++j) {
        if (draws[j].outcome != DeliveryOutcome::kPartial ||
            !(report.tau[j] > 0.0)) {
          continue;
        }
        report.tau[j] *= draws[j].fraction;
        LogFault(&report, FaultKind::kPartialDelivery, report.selected[j],
                 draws[j].fraction, true);
      }
      RecomputeProfits(&report);
    }
  }

  // Budget gate: the round is abandoned (no data collected, no payments)
  // when the consumer cannot afford the delivered coalition's reward.
  if (!report.voided && config_.consumer_budget > 0.0) {
    double reward = report.consumer_price * report.total_time;
    if (ledger_.ConsumerOutflow() + reward > config_.consumer_budget) {
      budget_exhausted_ = true;
      ++fault_counts_[static_cast<std::size_t>(FaultKind::kBudgetStop)];
      // The run ends here, so the checker's O(M) ledger audit closes it; a
      // violation is returned in place of the clean stop.
      CDT_RETURN_NOT_OK(AuditInvariants());
      return Status::FailedPrecondition(
          "consumer budget exhausted after " +
          std::to_string(next_round_ - 1) + " rounds");
    }
  }

  // Settlement, with capped-exponential-backoff retries under transient
  // failures. Exhausting the retry budget voids the round: no payments
  // flow and no data is accepted, so the ledger and the bandit state stay
  // exactly as if the round had not traded.
  if (!report.voided) {
    CDT_SPAN("engine.settlement");
    bool settled = true;
    if (injector_ != nullptr) {
      int failures = 0;
      while (injector_->SettlementAttemptFails(t, failures)) {
        ++failures;
        if (failures > config_.recovery.max_settlement_retries) {
          settled = false;
          break;
        }
        report.settlement_backoff +=
            BackoffDelay(config_.recovery, failures - 1);
      }
      report.settlement_attempts = failures + (settled ? 1 : 0);
      if (failures > 0) {
        report.degraded = true;
        LogFault(&report, FaultKind::kSettlementFailure, -1,
                 static_cast<double>(failures), settled);
      }
    }
    if (settled) {
      CDT_RETURN_NOT_OK(SettlePayments(report));
    } else {
      VoidRound(&report);
    }
  }

  // Data collection: observe the environment for every delivering seller.
  // Each batch — injected or not — must pass validation before it feeds
  // the pricing bank (the policy's or owned_bank_) or the revenue
  // accounting, so corrupted reports can never bias the quality estimates.
  if (!report.voided) {
    CDT_SPAN_TIMED("engine.collect", EngineCollectHistogram);
    CollectCoalition(injector_.get(), draws, environment_, &reliability_,
                     &report, &collect_);
    if (owned_bank_ != nullptr) {
      for (std::size_t j = 0; j < collect_.learners.size(); ++j) {
        CDT_RETURN_NOT_OK(
            owned_bank_->Update(collect_.learners[j], collect_.batches[j]));
      }
    }
    if (!collect_.learners.empty()) {
      CDT_RETURN_NOT_OK(policy_->Observe(collect_.learners, collect_.batches));
    }
    collect_.Recycle();
  }
  if (report.initial_exploration) {
    // Only a select-all round fills these past K; keeping M rows of L
    // draws would hold the round's high-water mark for the whole run.
    collect_ = CollectBuffers();
    selected_scratch_ = std::vector<int>();
  }

  for (const FaultEvent& e : report.faults) {
    ++fault_counts_[static_cast<std::size_t>(e.kind)];
  }
  ++next_round_;
  for (const std::unique_ptr<RoundObserver>& observer : observers_) {
    CDT_RETURN_NOT_OK(observer->OnRound(*this, report));
  }
  return report;
}

Status TradingEngine::SetSellerActive(int seller, bool active) {
  const int num_sellers = environment_->num_sellers();
  if (seller < 0 || seller >= num_sellers) {
    return Status::OutOfRange("seller index " + std::to_string(seller) +
                              " outside [0, " + std::to_string(num_sellers) +
                              ")");
  }
  if (seller_active_.empty()) {
    if (active) return Status::OK();  // everyone already active
    seller_active_.assign(static_cast<std::size_t>(num_sellers), 1);
  }
  std::uint8_t& slot = seller_active_[static_cast<std::size_t>(seller)];
  if ((slot != 0) == active) return Status::OK();  // no-op transition
  if (!active && inactive_count_ + 1 >= num_sellers) {
    return Status::FailedPrecondition(
        "deactivating seller " + std::to_string(seller) +
        " would leave no active sellers");
  }
  slot = active ? 1 : 0;
  inactive_count_ += active ? -1 : 1;
  if (inactive_count_ == 0) seller_active_.clear();
  return Status::OK();
}

Status TradingEngine::AuditInvariants() const {
  if (checker_ == nullptr) return Status::OK();
  return checker_->AuditLedger(ledger_);
}

EngineSnapshot TradingEngine::CaptureSnapshot() const {
  EngineSnapshot snapshot;
  snapshot.next_round = next_round_;
  snapshot.budget_exhausted = budget_exhausted_;

  snapshot.pricing_arms.reserve(static_cast<std::size_t>(bank_->num_arms()));
  for (int i = 0; i < bank_->num_arms(); ++i) {
    snapshot.pricing_arms.push_back(bank_->arm(i));
  }
  snapshot.pricing_total_observations = bank_->total_observations();

  snapshot.ledger_balances = ledger_.balances();
  snapshot.ledger_consumer_outflow = ledger_.ConsumerOutflow();
  snapshot.ledger_seller_inflow = ledger_.SellerInflow();

  snapshot.reliability = reliability_.sellers();
  snapshot.reliability_total_faults = reliability_.total_faults();
  snapshot.fault_counts = fault_counts_;

  snapshot.environment = environment_->SaveState();

  // Empty when everyone is active — the encoding then appends nothing, so
  // snapshots of runs that never saw a departure keep their exact
  // pre-overlay byte layout.
  snapshot.seller_active = seller_active_;
  return snapshot;
}

EngineSnapshotView TradingEngine::SnapshotView() const {
  EngineSnapshotView view;
  view.next_round = next_round_;
  view.budget_exhausted = budget_exhausted_;
  view.arm_observations = bank_->observation_counts();
  view.arm_means = bank_->means();
  view.pricing_total_observations = bank_->total_observations();
  view.ledger_balances = ledger_.balances();
  view.ledger_consumer_outflow = ledger_.ConsumerOutflow();
  view.ledger_seller_inflow = ledger_.SellerInflow();
  view.reliability = reliability_.sellers();
  view.reliability_total_faults = reliability_.total_faults();
  view.fault_counts = fault_counts_;
  view.environment = environment_->StateView();
  view.seller_active = seller_active_;
  return view;
}

Status TradingEngine::RestoreSnapshot(const EngineSnapshot& snapshot) {
  if (next_round_ != 1) {
    return Status::FailedPrecondition(
        "snapshot restore requires a freshly built engine");
  }
  if (snapshot.next_round < 1 ||
      snapshot.next_round > config_.job.num_rounds + 1) {
    return Status::OutOfRange("snapshot round cursor outside the campaign");
  }
  if (!policy_->snapshot_safe()) {
    return Status::FailedPrecondition(
        "policy '" + policy_->name() +
        "' keeps private state and cannot restore exactly");
  }
  // A borrowed bank restores through the policy, which must hand back the
  // very bank the engine prices from.
  bandit::EstimatorBank* bank = owned_bank_ != nullptr
                                    ? owned_bank_.get()
                                    : policy_->mutable_estimator();
  if (bank != bank_) {
    return Status::FailedPrecondition(
        "policy '" + policy_->name() +
        "' does not expose the bank the engine prices from for restore");
  }
  for (std::int64_t count : snapshot.fault_counts) {
    if (count < 0) {
      return Status::OutOfRange("negative fault counter in snapshot");
    }
  }
  if (!snapshot.seller_active.empty() &&
      snapshot.seller_active.size() !=
          static_cast<std::size_t>(environment_->num_sellers())) {
    return Status::InvalidArgument(
        "snapshot seller-activity bitmap does not match the seller count");
  }
  // Sub-restores validate before mutating; once one has succeeded a later
  // failure leaves the engine partially restored, so callers must discard
  // the engine on any non-OK status. The ledger goes first, so a refused
  // ledger leaves the engine untouched.
  CDT_RETURN_NOT_OK(ledger_.Restore(snapshot.ledger_balances,
                                    snapshot.ledger_consumer_outflow,
                                    snapshot.ledger_seller_inflow));
  CDT_RETURN_NOT_OK(bank->Restore(snapshot.pricing_arms,
                                  snapshot.pricing_total_observations));
  CDT_RETURN_NOT_OK(reliability_.Restore(
      snapshot.reliability, snapshot.reliability_total_faults));
  CDT_RETURN_NOT_OK(environment_->RestoreState(snapshot.environment));

  next_round_ = snapshot.next_round;
  budget_exhausted_ = snapshot.budget_exhausted;
  fault_counts_ = snapshot.fault_counts;
  seller_active_ = snapshot.seller_active;
  inactive_count_ = 0;
  for (std::uint8_t flag : seller_active_) {
    if (flag == 0) ++inactive_count_;
  }
  if (inactive_count_ == 0) seller_active_.clear();

  if (checker_ != nullptr) {
    CDT_RETURN_NOT_OK(
        checker_->ResetBaseline(ledger_, bank_, next_round_ - 1));
  }
  return Status::OK();
}

Status TradingEngine::SettlePayments(const RoundReport& report) {
  // Consumer → platform: p^J · Στ; platform → seller i: p · τ_i.
  CDT_RETURN_NOT_OK(ledger_.Record(kConsumerAccount, kPlatformAccount,
                                   report.consumer_price * report.total_time));
  for (std::size_t j = 0; j < report.selected.size(); ++j) {
    CDT_RETURN_NOT_OK(
        ledger_.Record(kPlatformAccount,
                       static_cast<std::int32_t>(report.selected[j]),
                       report.collection_price * report.tau[j]));
  }
  return Status::OK();
}

}  // namespace market
}  // namespace cdt
