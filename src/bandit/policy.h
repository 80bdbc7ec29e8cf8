// The bandit-policy interface (Def. 7): a policy emits one arm-pulling
// decision per round and consumes the resulting quality observations.

#ifndef CDT_BANDIT_POLICY_H_
#define CDT_BANDIT_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bandit/arm.h"
#include "util/status.h"

namespace cdt {
namespace bandit {

/// Abstract seller-selection policy.
///
/// Protocol per round t (1-based): call SelectRound(t) to obtain the chosen
/// seller indices, collect observations, then call Observe() with exactly
/// the selected set and one observation batch per selected seller.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Human-readable policy name ("cmab-hs", "0.1-first", ...).
  virtual std::string name() const = 0;

  /// Number of sellers this policy draws from.
  virtual int num_sellers() const = 0;

  /// Sellers selected in round `round`. Policies may select more than K in
  /// designated exploration rounds (Algorithm 1 selects all M in round 1).
  virtual util::Result<std::vector<int>> SelectRound(std::int64_t round) = 0;

  /// SelectRound into a caller-owned buffer (the engine's per-round hot
  /// path). The default delegates to SelectRound; policies with a
  /// performance-sensitive selection (CucbPolicy) override this to fill
  /// `out` without allocating, and implement SelectRound on top of it.
  virtual util::Status SelectRoundInto(std::int64_t round,
                                       std::vector<int>* out) {
    util::Result<std::vector<int>> selected = SelectRound(round);
    if (!selected.ok()) return selected.status();
    *out = std::move(selected).value();
    return util::Status::OK();
  }

  /// Feedback for the round: `observations[j]` are the per-PoI quality
  /// samples of `selected[j]`.
  virtual util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) = 0;

  /// The policy's Eq. (17)-(18) bank, when it maintains one (else
  /// nullptr). TradingEngine prices from this bank instead of keeping its
  /// own, so Observe must feed it exactly the round's batches: every
  /// (selected[j], observations[j]) pair, once, in order.
  virtual const EstimatorBank* estimator() const { return nullptr; }

  /// Snapshot support: true when the policy's entire mutable state is the
  /// (optional) estimator bank, so a persisted engine snapshot can restore
  /// it exactly. Policies with private RNG streams (random, ε-greedy,
  /// Thompson) keep the default false and snapshot restore fails closed.
  virtual bool snapshot_safe() const { return false; }

  /// The estimator() bank, writable, for snapshot restore only: a policy
  /// whose snapshot_safe() is true and that has an estimator() returns that
  /// same bank here, and TradingEngine::RestoreSnapshot refuses any other
  /// answer. nullptr otherwise.
  virtual EstimatorBank* mutable_estimator() { return nullptr; }
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_POLICY_H_
