#include "support/reference_cucb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace cdt {
namespace testsupport {

using util::Result;
using util::Status;

void UcbValuesReferenceInto(const bandit::EstimatorBank& bank,
                            std::vector<double>* out) {
  const std::vector<double>& means = bank.means();
  const std::vector<std::uint64_t>& observations = bank.observation_counts();
  const std::size_t m = means.size();
  out->resize(m);
  const double sl = bank.scaled_log();
  for (std::size_t i = 0; i < m; ++i) {
    (*out)[i] =
        observations[i] == 0
            ? std::numeric_limits<double>::infinity()
            : means[i] + std::sqrt(sl /
                                   static_cast<double>(observations[i]));
  }
}

void TopKIndicesPartialSortInto(const std::vector<double>& values, int k,
                                std::vector<int>* out) {
  std::vector<int>& order = *out;
  order.resize(values.size());
  std::iota(order.begin(), order.end(), 0);
  int take = std::min<int>(k, static_cast<int>(order.size()));
  if (take <= 0) {
    order.clear();
    return;
  }
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&values](int a, int b) {
                      double va = values[static_cast<std::size_t>(a)];
                      double vb = values[static_cast<std::size_t>(b)];
                      if (va != vb) return va > vb;
                      return a < b;
                    });
  order.resize(static_cast<std::size_t>(take));
}

Result<ReferenceCucbPolicy> ReferenceCucbPolicy::Create(
    const bandit::CucbOptions& options) {
  // The production policy validates the options and resolves the paper's
  // K+1 exploration default; the oracle starts from a copy of its bank.
  Result<bandit::CucbPolicy> production = bandit::CucbPolicy::Create(options);
  if (!production.ok()) return production.status();
  return ReferenceCucbPolicy(options, *production.value().estimator());
}

Result<std::vector<int>> ReferenceCucbPolicy::SelectRound(
    std::int64_t round) {
  std::vector<int> selected;
  CDT_RETURN_NOT_OK(SelectRoundInto(round, &selected));
  return selected;
}

Status ReferenceCucbPolicy::SelectRoundInto(std::int64_t round,
                                            std::vector<int>* out) {
  if (round < 1) {
    return Status::InvalidArgument("rounds are 1-based");
  }
  if (round == 1 && options_.select_all_first_round) {
    out->resize(static_cast<std::size_t>(options_.num_sellers));
    std::iota(out->begin(), out->end(), 0);
    return Status::OK();
  }
  UcbValuesReferenceInto(bank_, &ucb_scratch_);
  TopKIndicesPartialSortInto(ucb_scratch_, options_.num_selected, out);
  return Status::OK();
}

Status ReferenceCucbPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  if (selected.size() != observations.size()) {
    return Status::InvalidArgument("selected/observations size mismatch");
  }
  for (std::size_t j = 0; j < selected.size(); ++j) {
    CDT_RETURN_NOT_OK(bank_.Update(selected[j], observations[j]));
  }
  return Status::OK();
}

Result<CucbEngine> MakeCucbEngine(const core::MechanismConfig& config,
                                  bool reference) {
  CDT_RETURN_NOT_OK(config.Validate());
  Result<bandit::QualityEnvironment> env =
      bandit::QualityEnvironment::Create(config.MakeEnvironmentConfig());
  if (!env.ok()) return env.status();
  CucbEngine out;
  out.environment = std::make_unique<bandit::QualityEnvironment>(
      std::move(env).value());

  bandit::CucbOptions options;
  options.num_sellers = config.num_sellers;
  options.num_selected = config.num_selected;
  options.exploration = config.exploration;
  options.select_all_first_round = config.select_all_first_round;
  std::unique_ptr<bandit::SelectionPolicy> policy;
  if (reference) {
    Result<ReferenceCucbPolicy> oracle = ReferenceCucbPolicy::Create(options);
    if (!oracle.ok()) return oracle.status();
    policy = std::make_unique<ReferenceCucbPolicy>(std::move(oracle).value());
  } else {
    Result<bandit::CucbPolicy> cucb = bandit::CucbPolicy::Create(options);
    if (!cucb.ok()) return cucb.status();
    policy = std::make_unique<bandit::CucbPolicy>(std::move(cucb).value());
  }

  Result<std::unique_ptr<market::TradingEngine>> engine =
      market::TradingEngine::Create(config.MakeEngineConfig(),
                                    out.environment.get(), std::move(policy));
  if (!engine.ok()) return engine.status();
  out.engine = std::move(engine).value();
  return out;
}

}  // namespace testsupport
}  // namespace cdt
