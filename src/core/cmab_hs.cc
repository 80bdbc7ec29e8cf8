#include "core/cmab_hs.h"

#include <sstream>

#include "bandit/baseline_policies.h"
#include "bandit/cucb_policy.h"
#include "bandit/extension_policies.h"

namespace cdt {
namespace core {

using util::Result;
using util::Status;

std::string PolicySpec::Name() const {
  switch (kind) {
    case PolicyKind::kCmabHs:
      return "cmab-hs";
    case PolicyKind::kOptimal:
      return "optimal";
    case PolicyKind::kEpsilonFirst: {
      std::ostringstream os;
      os << epsilon << "-first";
      return os.str();
    }
    case PolicyKind::kRandom:
      return "random";
    case PolicyKind::kEpsilonGreedy: {
      std::ostringstream os;
      os << epsilon << "-greedy";
      return os.str();
    }
    case PolicyKind::kThompson:
      return "thompson";
  }
  return "unknown";
}

namespace {

Result<std::unique_ptr<bandit::SelectionPolicy>> MakePolicy(
    const MechanismConfig& config, const PolicySpec& spec,
    const bandit::QualityEnvironment& environment) {
  // Policy RNG stream is derived from, but distinct from, the master seed.
  std::uint64_t policy_seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
  switch (spec.kind) {
    case PolicyKind::kCmabHs: {
      bandit::CucbOptions options;
      options.num_sellers = config.num_sellers;
      options.num_selected = config.num_selected;
      options.exploration = config.exploration;
      options.select_all_first_round = config.select_all_first_round;
      Result<bandit::CucbPolicy> policy =
          bandit::CucbPolicy::Create(options);
      if (!policy.ok()) return policy.status();
      return std::unique_ptr<bandit::SelectionPolicy>(
          new bandit::CucbPolicy(std::move(policy).value()));
    }
    case PolicyKind::kOptimal: {
      Result<bandit::OraclePolicy> policy = bandit::OraclePolicy::Create(
          environment.effective_qualities(), config.num_selected);
      if (!policy.ok()) return policy.status();
      return std::unique_ptr<bandit::SelectionPolicy>(
          new bandit::OraclePolicy(std::move(policy).value()));
    }
    case PolicyKind::kEpsilonFirst: {
      Result<bandit::EpsilonFirstPolicy> policy =
          bandit::EpsilonFirstPolicy::Create(
              config.num_sellers, config.num_selected, config.num_rounds,
              spec.epsilon, policy_seed);
      if (!policy.ok()) return policy.status();
      return std::unique_ptr<bandit::SelectionPolicy>(
          new bandit::EpsilonFirstPolicy(std::move(policy).value()));
    }
    case PolicyKind::kRandom: {
      Result<bandit::RandomPolicy> policy = bandit::RandomPolicy::Create(
          config.num_sellers, config.num_selected, policy_seed);
      if (!policy.ok()) return policy.status();
      return std::unique_ptr<bandit::SelectionPolicy>(
          new bandit::RandomPolicy(std::move(policy).value()));
    }
    case PolicyKind::kEpsilonGreedy: {
      Result<bandit::EpsilonGreedyPolicy> policy =
          bandit::EpsilonGreedyPolicy::Create(config.num_sellers,
                                              config.num_selected,
                                              spec.epsilon, policy_seed);
      if (!policy.ok()) return policy.status();
      return std::unique_ptr<bandit::SelectionPolicy>(
          new bandit::EpsilonGreedyPolicy(std::move(policy).value()));
    }
    case PolicyKind::kThompson: {
      Result<bandit::ThompsonPolicy> policy = bandit::ThompsonPolicy::Create(
          config.num_sellers, config.num_selected, policy_seed);
      if (!policy.ok()) return policy.status();
      return std::unique_ptr<bandit::SelectionPolicy>(
          new bandit::ThompsonPolicy(std::move(policy).value()));
    }
  }
  return Status::InvalidArgument("unknown policy kind");
}

}  // namespace

Result<std::unique_ptr<CmabHs>> CmabHs::Create(
    const MechanismConfig& config, const PolicySpec& spec,
    std::vector<std::int64_t> checkpoints) {
  CDT_RETURN_NOT_OK(config.Validate());
  Result<bandit::QualityEnvironment> env =
      bandit::QualityEnvironment::Create(config.MakeEnvironmentConfig());
  if (!env.ok()) return env.status();
  auto environment = std::make_unique<bandit::QualityEnvironment>(
      std::move(env).value());

  Result<std::unique_ptr<bandit::SelectionPolicy>> policy =
      MakePolicy(config, spec, *environment);
  if (!policy.ok()) return policy.status();

  market::EngineConfig engine_config = config.MakeEngineConfig();
  engine_config.use_true_qualities_for_game =
      spec.kind == PolicyKind::kOptimal;
  Result<std::unique_ptr<market::TradingEngine>> engine =
      market::TradingEngine::Create(std::move(engine_config),
                                    environment.get(),
                                    std::move(policy).value());
  if (!engine.ok()) return engine.status();

  Result<MetricsCollector> metrics = MetricsCollector::Create(
      environment->effective_qualities(), config.num_selected,
      config.num_pois, std::move(checkpoints));
  if (!metrics.ok()) return metrics.status();

  return std::unique_ptr<CmabHs>(
      new CmabHs(config, spec, std::move(environment),
                 std::move(engine).value(),
                 std::make_unique<MetricsCollector>(
                     std::move(metrics).value())));
}

Result<market::RoundReport> CmabHs::RunRound() {
  Result<market::RoundReport> report = engine_->RunRound();
  if (!report.ok()) return report.status();
  CDT_RETURN_NOT_OK(metrics_->Record(report.value()));
  return report;
}

Status CmabHs::RunAll(
    const std::function<void(const market::RoundReport&)>& callback) {
  while (engine_->current_round() < config_.num_rounds) {
    Result<market::RoundReport> report = RunRound();
    if (!report.ok()) {
      // A configured consumer budget running out is a clean stop (unless
      // the audit that closes it found a violation).
      if (engine_->budget_exhausted() &&
          report.status().code() == util::StatusCode::kFailedPrecondition) {
        return Status::OK();
      }
      return report.status();
    }
    if (callback) callback(report.value());
  }
  return Status::OK();
}

}  // namespace core
}  // namespace cdt
