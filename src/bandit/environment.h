// The quality environment: ground truth for the CMAB game. Each seller i
// has an unknown expected quality q_i (Def. 3); every time a selected seller
// collects data at one of the L PoIs, the platform observes one sample
// q_{i,l}^t drawn from a truncated Gaussian around q_i (paper Sec. V-A).

#ifndef CDT_BANDIT_ENVIRONMENT_H_
#define CDT_BANDIT_ENVIRONMENT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "stats/distributions.h"
#include "stats/rng.h"
#include "util/status.h"
#include "util/strided_span.h"

namespace cdt {
namespace bandit {

/// Configuration of a randomly generated environment.
struct EnvironmentConfig {
  int num_sellers = 300;  // M
  int num_pois = 10;      // L
  /// Std-dev of the per-observation truncated Gaussian noise.
  double observation_stddev = 0.1;
  /// Expected qualities are drawn uniformly from this range (paper: [0,1]).
  double quality_lo = 0.0;
  double quality_hi = 1.0;
  std::uint64_t seed = 1;

  util::Status Validate() const;
};

/// The environment's mutable observation-stream state: the xoshiro RNG
/// plus every per-seller sampler's Box–Muller spare cache. Capturing and
/// restoring it lets a persisted run resume its observation stream
/// bit-for-bit mid-campaign (see src/persist/).
struct EnvironmentState {
  std::array<std::uint64_t, 4> rng_state{};
  /// Per-seller spare flags/values (parallel vectors, size M).
  std::vector<std::uint8_t> has_spare;
  std::vector<double> spare;
};

/// The same state without a copy: the RNG words and views of the spare
/// caches where they live. Valid until the viewed state next changes.
struct EnvironmentStateView {
  std::array<std::uint64_t, 4> rng_state{};
  util::StridedSpan<std::uint8_t> has_spare;
  util::StridedSpan<double> spare;

  EnvironmentStateView() = default;
  /// A view of a captured state (implicit, like EngineSnapshotView's).
  EnvironmentStateView(const EnvironmentState& state)  // NOLINT
      : rng_state(state.rng_state),
        has_spare(state.has_spare),
        spare(state.spare) {}
};

/// Ground-truth seller qualities plus the observation process.
///
/// Distinguishes the *nominal* quality q_i (the Gaussian centre) from the
/// *effective* quality E[q_{i,l}^t] (the truncated-Gaussian mean, computed
/// analytically). All regret accounting and the oracle policy use effective
/// qualities so that "optimal" is optimal w.r.t. what is actually observable.
class QualityEnvironment {
 public:
  /// Generates an environment with random qualities per `config`.
  static util::Result<QualityEnvironment> Create(
      const EnvironmentConfig& config);

  /// Builds an environment from explicit nominal qualities (all in [0,1]).
  static util::Result<QualityEnvironment> CreateWithQualities(
      std::vector<double> qualities, int num_pois, double observation_stddev,
      std::uint64_t seed);

  int num_sellers() const { return static_cast<int>(nominal_.size()); }
  int num_pois() const { return num_pois_; }
  double observation_stddev() const { return observation_stddev_; }

  double nominal_quality(int seller) const { return nominal_.at(seller); }
  double effective_quality(int seller) const { return effective_.at(seller); }
  const std::vector<double>& effective_qualities() const { return effective_; }

  /// Draws the L per-PoI observations for `seller` (consumes RNG state).
  std::vector<double> ObserveSeller(int seller);

  /// ObserveSeller into a caller-owned buffer (resized to L; identical
  /// draw sequence), so a reused buffer keeps the round allocation-free.
  void ObserveSellerInto(int seller, std::vector<double>* out);

  /// ObserveSellerInto for every seller of `sellers`, in order: (*rows)[j]
  /// gets sellers[j]'s batch. `rows` grows to at least sellers.size();
  /// rows past it are left as they are. The draws, the RNG words and every
  /// sampler's spare end exactly as the per-seller calls leave them.
  void ObserveSellersInto(const std::vector<int>& sellers,
                          std::vector<std::vector<double>>* rows);

  /// Asks the cache for `seller`'s sampler row and effective quality ahead
  /// of ObserveSellersInto and effective_quality. No effect on any value.
  void PrefetchSeller(int seller) const;

  /// Indices of the top-k sellers by effective quality (descending),
  /// deterministic tie-break by index.
  std::vector<int> OptimalSet(int k) const;

  /// Sum of effective qualities over OptimalSet(k).
  double OptimalSetQuality(int k) const;

  /// Captures the observation-stream state (RNG + sampler spare caches).
  EnvironmentState SaveState() const;

  /// SaveState's fields in place, for a checkpoint that encodes them
  /// without a copy.
  EnvironmentStateView StateView() const;

  /// Restores a previously captured state. Fails closed on a seller-count
  /// mismatch or a degenerate (all-zero) RNG state.
  util::Status RestoreState(const EnvironmentState& state);

 private:
  QualityEnvironment(std::vector<double> nominal, int num_pois,
                     double observation_stddev, std::uint64_t seed);

  /// One observation of the seller whose spare cache is `gaussian` and
  /// whose nominal quality is `mean`: N(mean, stddev^2) truncated to
  /// [0, 1] by rejection, clamping the mean into the window after
  /// kMaxRejects misses.
  double Draw(stats::GaussianSampler& gaussian, double mean);

  static constexpr int kMaxRejects = 256;

  /// Nominal qualities q_i, the centres of the observation noise.
  std::vector<double> nominal_;
  std::vector<double> effective_;
  int num_pois_;
  double observation_stddev_;
  stats::Xoshiro256 rng_;
  /// One Box–Muller spare cache per seller (16 bytes); the truncated
  /// Gaussian's centre is nominal_[i], and its stddev and window are the
  /// environment's.
  std::vector<stats::GaussianSampler> samplers_;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_ENVIRONMENT_H_
