#include "bandit/environment.h"

#include <algorithm>
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

QualityEnvironment::QualityEnvironment(std::vector<double> nominal,
                                       int num_pois,
                                       double observation_stddev,
                                       std::uint64_t seed)
    : nominal_(std::move(nominal)),
      num_pois_(num_pois),
      observation_stddev_(observation_stddev),
      rng_(seed),
      samplers_(nominal_.size()) {
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
  for (double q : qualities) {
    if (q < 0.0 || q > 1.0) {
      return Status::OutOfRange("quality must lie in [0, 1]");
    }
  }
  if (observation_stddev <= 0.0) {
    return Status::InvalidArgument("truncated Gaussian requires stddev > 0");
  }
  return QualityEnvironment(std::move(qualities), num_pois, observation_stddev,
                            seed);
}

double QualityEnvironment::Draw(stats::GaussianSampler& gaussian,
                                double mean) {
  for (int attempt = 0; attempt < kMaxRejects; ++attempt) {
    const double x = gaussian.Sample(rng_, mean, observation_stddev_);
    if (x >= 0.0 && x <= 1.0) return x;
  }
  // Degenerate parameterisation: clamp the mean into the window.
  return std::min(1.0, std::max(0.0, mean));
}

std::vector<double> QualityEnvironment::ObserveSeller(int seller) {
  std::vector<double> out;
  ObserveSellerInto(seller, &out);
  return out;
}

void QualityEnvironment::ObserveSellerInto(int seller,
                                           std::vector<double>* out) {
  const std::size_t i = static_cast<std::size_t>(seller);
  stats::GaussianSampler& gaussian = samplers_.at(i);
  const double mean = nominal_[i];
  out->resize(static_cast<std::size_t>(num_pois_));
  for (double& x : *out) x = Draw(gaussian, mean);
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
  // The 16-byte sampler row never straddles a cache line; its spare is
  // written, so ask for it in write intent.
  __builtin_prefetch(&samplers_[i], 1);
  __builtin_prefetch(&nominal_[i]);
  __builtin_prefetch(&effective_[i]);
}

EnvironmentState QualityEnvironment::SaveState() const {
  EnvironmentState state;
  state.rng_state = rng_.state();
  state.has_spare.reserve(samplers_.size());
  state.spare.reserve(samplers_.size());
  for (const stats::GaussianSampler& sampler : samplers_) {
    state.has_spare.push_back(sampler.has_spare() ? 1 : 0);
    state.spare.push_back(sampler.spare());
  }
  return state;
}

EnvironmentStateView QualityEnvironment::StateView() const {
  EnvironmentStateView view;
  view.rng_state = rng_.state();
  const std::size_t stride = sizeof(stats::GaussianSampler);
  view.has_spare = util::StridedSpan<std::uint8_t>(
      samplers_.data()->has_spare_field(), samplers_.size(), stride);
  view.spare = util::StridedSpan<double>(samplers_.data()->spare_field(),
                                         samplers_.size(), stride);
  return view;
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
    samplers_[i].set_spare(state.has_spare[i] != 0, spare);
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
