#include "layers.h"

#include <filesystem>
#include <memory>
#include <optional>

#include "bandit/cucb_policy.h"
#include "bandit/environment.h"
#include "core/config.h"
#include "core/metrics.h"
#include "game/stackelberg.h"
#include "market/invariants.h"
#include "market/trading_engine.h"
#include "obs/telemetry.h"
#include "obs/telemetry_observer.h"
#include "runtime/durability.h"
#include "runtime/journal.h"
#include "runtime/marketplace.h"

namespace svcbench {

namespace {

using cdt::util::Status;

/// Forwards every call to the real policy, spanning selection and update.
class TracedPolicy final : public cdt::bandit::SelectionPolicy {
 public:
  TracedPolicy(std::unique_ptr<cdt::bandit::SelectionPolicy> inner,
               SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  int num_sellers() const override { return inner_->num_sellers(); }
  cdt::util::Result<std::vector<int>> SelectRound(
      std::int64_t round) override {
    ScopedSpan span(spans_, "bandit.select", 0, kEngineTrack);
    return inner_->SelectRound(round);
  }
  Status SelectRoundInto(std::int64_t round, std::vector<int>* out) override {
    ScopedSpan span(spans_, "bandit.select", 0, kEngineTrack);
    return inner_->SelectRoundInto(round, out);
  }
  Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override {
    ScopedSpan span(spans_, "bandit.observe", 0, kEngineTrack);
    return inner_->Observe(selected, observations);
  }
  const cdt::bandit::EstimatorBank* estimator() const override {
    return inner_->estimator();
  }
  bool snapshot_safe() const override { return inner_->snapshot_safe(); }
  cdt::bandit::EstimatorBank* mutable_estimator() override {
    return inner_->mutable_estimator();
  }

 private:
  std::unique_ptr<cdt::bandit::SelectionPolicy> inner_;
  SpanRecorder* spans_;
};

/// Times an observer; the duration of each call also lands in *last_ns.
class TimedObserver final : public cdt::market::RoundObserver {
 public:
  TimedObserver(const char* name,
                std::unique_ptr<cdt::market::RoundObserver> inner,
                SpanRecorder* spans, std::int64_t* last_ns)
      : name_(name), inner_(std::move(inner)), spans_(spans),
        last_ns_(last_ns) {}

  Status OnRound(const cdt::market::TradingEngine& engine,
                 const cdt::market::RoundReport& report) override {
    const std::int64_t start = NowNs();
    Status status;
    {
      ScopedSpan span(spans_, name_, 0, kEngineTrack);
      status = inner_->OnRound(engine, report);
    }
    *last_ns_ = NowNs() - start;
    return status;
  }

 private:
  const char* name_;
  std::unique_ptr<cdt::market::RoundObserver> inner_;
  SpanRecorder* spans_;
  std::int64_t* last_ns_;
};

struct Coalition {
  std::vector<int> selected;
  std::vector<double> qualities;
};

/// Times ResetCoalition + Solve, the engine's per-round solver calls, on
/// coalitions the run produced.
Status TimeSolver(const cdt::market::EngineConfig& config,
                  const std::vector<Coalition>& coalitions,
                  SpanRecorder* spans, LayerStats* stats) {
  std::optional<cdt::game::StackelbergSolver> solver;
  for (const Coalition& coalition : coalitions) {
    std::vector<cdt::game::SellerCostParams> sellers;
    for (int i : coalition.selected) {
      sellers.push_back(config.seller_costs[static_cast<std::size_t>(i)]);
    }
    std::vector<double> qualities = coalition.qualities;
    if (!solver.has_value()) {
      cdt::game::GameConfig game;
      game.sellers = std::move(sellers);
      game.qualities = std::move(qualities);
      game.platform = config.platform_cost;
      game.valuation = config.valuation;
      game.consumer_price_bounds = config.consumer_price_bounds;
      game.collection_price_bounds = config.collection_price_bounds;
      game.max_sensing_time = config.job.round_duration;
      auto created = cdt::game::StackelbergSolver::Create(std::move(game));
      CDT_RETURN_NOT_OK(created.status());
      solver.emplace(std::move(created).value());
      continue;
    }
    const std::int64_t start = NowNs();
    {
      ScopedSpan span(spans, "game.solve", 0, kEngineTrack);
      CDT_RETURN_NOT_OK(solver->ResetCoalition(&sellers, &qualities));
      const cdt::game::StrategyProfile profile = solver->Solve();
      if (!(profile.consumer_price > 0.0)) {
        return Status::Internal("solver returned no consumer price");
      }
    }
    stats->solve_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Status::OK();
}

constexpr std::size_t kMaxCoalitions = 2000;

Status RunOne(const Plan& plan, const Market& market,
              const std::vector<Offer>& events, const std::string& dir,
              SpanRecorder* spans, bool last, LayerStats* stats) {
  const WorkloadSpec& spec = *plan.spec;
  const cdt::core::MechanismConfig& config = market.spec->config;
  // Replay wall, comparable with the runtime replay's create-to-finish.
  const std::int64_t replay_start = NowNs();
  auto environment =
      cdt::bandit::QualityEnvironment::Create(config.MakeEnvironmentConfig());
  CDT_RETURN_NOT_OK(environment.status());
  cdt::bandit::QualityEnvironment env = std::move(environment).value();

  cdt::bandit::CucbOptions policy_options;
  policy_options.num_sellers = config.num_sellers;
  policy_options.num_selected = config.num_selected;
  policy_options.exploration = config.exploration;
  policy_options.select_all_first_round = config.select_all_first_round;
  auto cucb = cdt::bandit::CucbPolicy::Create(policy_options);
  CDT_RETURN_NOT_OK(cucb.status());
  auto policy = std::make_unique<TracedPolicy>(
      std::make_unique<cdt::bandit::CucbPolicy>(std::move(cucb).value()),
      spans);

  cdt::market::EngineConfig engine_config = config.MakeEngineConfig();
  // The checker runs below as a bench-owned, timed observer instead.
  engine_config.check_invariants = false;
  const cdt::market::EngineConfig solver_config = engine_config;
  auto created = cdt::market::TradingEngine::Create(std::move(engine_config),
                                                    &env, std::move(policy));
  CDT_RETURN_NOT_OK(created.status());
  std::unique_ptr<cdt::market::TradingEngine> engine =
      std::move(created).value();

  std::int64_t invariants_ns = 0;
  std::int64_t wal_ns = 0;
  engine->AddObserver(std::make_unique<TimedObserver>(
      "market.invariants", std::make_unique<cdt::market::InvariantChecker>(),
      spans, &invariants_ns));
  cdt::runtime::DurabilityGuard::Options guard_options;
  guard_options.log_path = cdt::runtime::MarketplaceLogPath(dir, market.id);
  guard_options.journal_path =
      cdt::runtime::MarketplaceJournalPath(dir, market.id);
  guard_options.snapshot_path =
      cdt::runtime::MarketplaceSnapshotPath(dir, market.id);
  guard_options.snapshot_every = spec.snapshot_every;
  guard_options.tuning.compact_after_rounds = spec.compact_after_rounds;
  auto guard = cdt::runtime::DurabilityGuard::Create(
      std::move(guard_options), config, market.spec->policy);
  CDT_RETURN_NOT_OK(guard.status());
  cdt::runtime::DurabilityGuard* wal = guard.value().get();
  engine->AddObserver(std::make_unique<TimedObserver>(
      "persist.wal", std::move(guard).value(), spans, &wal_ns));

  auto metrics = cdt::core::MetricsCollector::Create(
      env.effective_qualities(), config.num_selected, config.num_pois, {});
  CDT_RETURN_NOT_OK(metrics.status());

  std::vector<Coalition> coalitions;
  cdt::market::RoundReport last_report;
  for (std::size_t i = 1; i < events.size(); ++i) {
    const Offer& offer = events[i];
    ScopedSpan event_span(spans, "bench.event", offer.id, kEngineTrack);
    const auto type = offer.event.type;
    if (type == cdt::runtime::EventType::kSellerLeave ||
        type == cdt::runtime::EventType::kSellerReturn) {
      // HostedMarketplace::ApplyEvent's order: journal first, then flip.
      cdt::runtime::JournalEntry entry;
      entry.type = type;
      entry.effect_round = engine->current_round() + 1;
      entry.seller = offer.event.seller;
      {
        ScopedSpan span(spans, "persist.journal", 0, kEngineTrack);
        wal->Journal(entry);
      }
      ScopedSpan span(spans, "market.set_seller_active", 0, kEngineTrack);
      (void)engine->SetSellerActive(
          offer.event.seller, type == cdt::runtime::EventType::kSellerReturn);
      continue;
    }
    const std::int64_t rounds = RoundsOf(offer.event);
    for (std::int64_t r = 0; r < rounds; ++r) {
      invariants_ns = 0;
      wal_ns = 0;
      const std::int64_t start = NowNs();
      auto report = [&] {
        ScopedSpan span(spans, "market.round", 0, kEngineTrack);
        return engine->RunRound();
      }();
      const std::int64_t round_ns = NowNs() - start;
      CDT_RETURN_NOT_OK(report.status());
      {
        ScopedSpan span(spans, "core.metrics", 0, kEngineTrack);
        CDT_RETURN_NOT_OK(metrics.value().Record(report.value()));
      }
      const cdt::market::RoundReport& done = report.value();
      ++stats->rounds;
      if (done.round == 1) {
        stats->first_round_ms.push_back(static_cast<double>(round_ns) / 1e6);
      } else {
        stats->round_us.push_back(
            static_cast<double>(round_ns - invariants_ns - wal_ns) / 1e3);
        stats->invariants_us.push_back(static_cast<double>(invariants_ns) /
                                       1e3);
        if (done.round % spec.snapshot_every == 0) {
          stats->snapshot_ms.push_back(static_cast<double>(wal_ns) / 1e6);
        } else {
          stats->append_us.push_back(static_cast<double>(wal_ns) / 1e3);
        }
        if (coalitions.size() < kMaxCoalitions) {
          coalitions.push_back({done.selected, done.game_qualities});
        }
      }
      last_report = done;
    }
  }
  {
    ScopedSpan span(spans, "persist.finish", 0, kEngineTrack);
    CDT_RETURN_NOT_OK(wal->Finish(*engine));
  }
  stats->wall_s += static_cast<double>(NowNs() - replay_start) / 1e9;

  CDT_RETURN_NOT_OK(TimeSolver(solver_config, coalitions, spans, stats));
  for (int k = 0; k < 5; ++k) {
    const std::int64_t start = NowNs();
    {
      ScopedSpan span(spans, "market.snapshot_capture", 0, kEngineTrack);
      const cdt::market::EngineSnapshot snapshot = engine->CaptureSnapshot();
      if (snapshot.next_round != engine->current_round() + 1) {
        return Status::Internal("snapshot cursor mismatch");
      }
    }
    stats->capture_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(
      cdt::runtime::MarketplaceSnapshotPath(dir, market.id), ec);
  if (!ec) stats->snapshot_bytes = static_cast<double>(bytes);

  if (last) {
    // Armed telemetry cost on the final state; the service itself runs
    // with telemetry dormant, so this is a baseline, not a live cost.
    cdt::obs::Enable();
    cdt::obs::TelemetryObserver telemetry;
    for (int k = 0; k < 20; ++k) {
      const std::int64_t start = NowNs();
      Status status;
      {
        ScopedSpan span(spans, "obs.telemetry_round", 0, kEngineTrack);
        status = telemetry.OnRound(*engine, last_report);
      }
      stats->telemetry_us.push_back(static_cast<double>(NowNs() - start) /
                                    1e3);
      if (!status.ok()) {
        cdt::obs::Disable();
        return status;
      }
    }
    cdt::obs::Disable();
  }
  return Status::OK();
}

}  // namespace

Status RunEngineLayers(const Plan& plan, const ServiceResult& live,
                       const std::vector<int>& markets,
                       const std::string& dir, SpanRecorder* spans,
                       LayerStats* stats) {
  std::filesystem::create_directories(dir);
  for (std::size_t k = 0; k < markets.size(); ++k) {
    const int m = markets[k];
    CDT_RETURN_NOT_OK(RunOne(plan, plan.markets[static_cast<std::size_t>(m)],
                             live.accepted_by_market[static_cast<std::size_t>(m)],
                             dir, spans, k + 1 == markets.size(), stats));
  }
  auto durations_us = [spans](const char* name) {
    std::vector<double> us;
    const SpanStats* found = spans != nullptr ? spans->Find(name) : nullptr;
    if (found != nullptr) {
      for (double ns : found->duration_ns) us.push_back(ns / 1e3);
    }
    return us;
  };
  stats->select_us = durations_us("bandit.select");
  stats->observe_us = durations_us("bandit.observe");
  return Status::OK();
}

}  // namespace svcbench
