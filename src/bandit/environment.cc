#include "bandit/environment.h"

#include <cmath>

#include "bandit/arm.h"

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

Status EnvironmentConfig::Validate() const {
  if (num_sellers <= 0) {
    return Status::InvalidArgument("num_sellers must be > 0");
  }
  if (num_pois <= 0) return Status::InvalidArgument("num_pois must be > 0");
  if (observation_stddev <= 0.0) {
    return Status::InvalidArgument("observation_stddev must be > 0");
  }
  if (quality_lo < 0.0 || quality_hi > 1.0 || quality_lo >= quality_hi) {
    return Status::InvalidArgument(
        "quality range must satisfy 0 <= lo < hi <= 1");
  }
  return Status::OK();
}

QualityEnvironment::QualityEnvironment(
    std::vector<double> nominal,
    std::vector<stats::TruncatedGaussianSampler> samplers, int num_pois,
    double observation_stddev, std::uint64_t seed)
    : nominal_(std::move(nominal)),
      num_pois_(num_pois),
      observation_stddev_(observation_stddev),
      rng_(seed),
      samplers_(std::move(samplers)) {
  effective_.reserve(nominal_.size());
  for (double q : nominal_) {
    effective_.push_back(
        stats::TruncatedGaussianMean(q, observation_stddev_, 0.0, 1.0));
  }
}

Result<QualityEnvironment> QualityEnvironment::Create(
    const EnvironmentConfig& config) {
  CDT_RETURN_NOT_OK(config.Validate());
  stats::Xoshiro256 seeder(config.seed);
  std::vector<double> qualities(static_cast<std::size_t>(config.num_sellers));
  for (double& q : qualities) {
    q = seeder.NextDouble(config.quality_lo, config.quality_hi);
  }
  return CreateWithQualities(std::move(qualities), config.num_pois,
                             config.observation_stddev, seeder.Next());
}

Result<QualityEnvironment> QualityEnvironment::CreateWithQualities(
    std::vector<double> qualities, int num_pois, double observation_stddev,
    std::uint64_t seed) {
  if (qualities.empty()) {
    return Status::InvalidArgument("need at least one seller quality");
  }
  if (num_pois <= 0) return Status::InvalidArgument("num_pois must be > 0");
  std::vector<stats::TruncatedGaussianSampler> samplers;
  samplers.reserve(qualities.size());
  for (double q : qualities) {
    if (q < 0.0 || q > 1.0) {
      return Status::OutOfRange("quality must lie in [0, 1]");
    }
    Result<stats::TruncatedGaussianSampler> sampler =
        stats::TruncatedGaussianSampler::Create(q, observation_stddev, 0.0,
                                                1.0);
    if (!sampler.ok()) return sampler.status();
    samplers.push_back(sampler.value());
  }
  return QualityEnvironment(std::move(qualities), std::move(samplers),
                            num_pois, observation_stddev, seed);
}

std::vector<double> QualityEnvironment::ObserveSeller(int seller) {
  std::vector<double> out;
  ObserveSellerInto(seller, &out);
  return out;
}

void QualityEnvironment::ObserveSellerInto(int seller,
                                           std::vector<double>* out) {
  out->resize(static_cast<std::size_t>(num_pois_));
  auto& sampler = samplers_.at(static_cast<std::size_t>(seller));
  for (double& x : *out) x = sampler.Sample(rng_);
}

void QualityEnvironment::ObserveSellersInto(
    const std::vector<int>& sellers, std::vector<std::vector<double>>* rows) {
  if (rows->size() < sellers.size()) rows->resize(sellers.size());
  for (std::size_t j = 0; j < sellers.size(); ++j) {
    ObserveSellerInto(sellers[j], &(*rows)[j]);
  }
}

void QualityEnvironment::PrefetchSeller(int seller) const {
  const std::size_t i = static_cast<std::size_t>(seller);
  if (i >= samplers_.size()) return;
  // A 48-byte sampler row may straddle two cache lines; its spare is
  // written, so ask for both lines in write intent.
  const char* row = reinterpret_cast<const char*>(&samplers_[i]);
  __builtin_prefetch(row, 1);
  __builtin_prefetch(row + sizeof(stats::TruncatedGaussianSampler) - 1, 1);
  __builtin_prefetch(&effective_[i]);
}

EnvironmentState QualityEnvironment::SaveState() const {
  EnvironmentState state;
  state.rng_state = rng_.state();
  state.has_spare.reserve(samplers_.size());
  state.spare.reserve(samplers_.size());
  for (const stats::TruncatedGaussianSampler& sampler : samplers_) {
    state.has_spare.push_back(sampler.gaussian().has_spare() ? 1 : 0);
    state.spare.push_back(sampler.gaussian().spare());
  }
  return state;
}

Status QualityEnvironment::RestoreState(const EnvironmentState& state) {
  if (state.has_spare.size() != samplers_.size() ||
      state.spare.size() != samplers_.size()) {
    return Status::InvalidArgument(
        "environment state seller count mismatch: have " +
        std::to_string(samplers_.size()) + " samplers, state has " +
        std::to_string(state.has_spare.size()));
  }
  bool all_zero = true;
  for (std::uint64_t word : state.rng_state) {
    if (word != 0) all_zero = false;
  }
  if (all_zero) {
    return Status::InvalidArgument("degenerate all-zero RNG state");
  }
  for (std::size_t i = 0; i < samplers_.size(); ++i) {
    double spare = state.spare[i];
    if (!std::isfinite(spare)) {
      return Status::OutOfRange("non-finite sampler spare in state");
    }
    samplers_[i].mutable_gaussian()->set_spare(state.has_spare[i] != 0,
                                               spare);
  }
  rng_.set_state(state.rng_state);
  return Status::OK();
}

std::vector<int> QualityEnvironment::OptimalSet(int k) const {
  return TopKIndices(effective_, k);
}

double QualityEnvironment::OptimalSetQuality(int k) const {
  double total = 0.0;
  for (int i : OptimalSet(k)) {
    total += effective_[static_cast<std::size_t>(i)];
  }
  return total;
}

}  // namespace bandit
}  // namespace cdt
