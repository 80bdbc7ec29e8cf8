// The paper's extended-UCB CMAB policy (Sec. III-A, Algorithm 1):
//  * round 1: initial exploration, select all M sellers;
//  * round t>1: select the K sellers with the largest UCB values (Eq. 19).

#ifndef CDT_BANDIT_CUCB_POLICY_H_
#define CDT_BANDIT_CUCB_POLICY_H_

#include "bandit/policy.h"
#include "bandit/topk.h"

namespace cdt {
namespace bandit {

/// Options for the CUCB policy; defaults match Algorithm 1.
struct CucbOptions {
  int num_sellers = 0;  // M (required)
  int num_selected = 0;  // K (required)
  /// Exploration constant inside the UCB radius; the paper uses K+1.
  /// <= 0 means "use K+1".
  double exploration = 0.0;
  /// Algorithm 1 selects all M sellers in round 1. Disable for the
  /// cold-start ablation (unexplored arms then carry a +inf UCB bonus).
  bool select_all_first_round = true;
};

/// The CMAB-HS seller-selection policy.
class CucbPolicy : public SelectionPolicy {
 public:
  static util::Result<CucbPolicy> Create(const CucbOptions& options);

  std::string name() const override { return "cmab-hs"; }
  int num_sellers() const override { return options_.num_sellers; }

  util::Result<std::vector<int>> SelectRound(std::int64_t round) override;

  /// Allocation-free selection: after the scratch buffers warm up in the
  /// first call, subsequent rounds do zero heap allocations.
  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;

  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  const EstimatorBank* estimator() const override { return &bank_; }

  /// The bank is the policy's only mutable state, so snapshots restore it
  /// bit-for-bit (the selector resyncs from the bank's update sequence).
  bool snapshot_safe() const override { return true; }
  EstimatorBank* mutable_estimator() override { return &bank_; }

 private:
  CucbPolicy(const CucbOptions& options, EstimatorBank bank)
      : options_(options), bank_(std::move(bank)) {}

  CucbOptions options_;
  EstimatorBank bank_;
  /// Incremental Eq. (19) top-K selector; kept in sync by Observe() and
  /// rebuilt after a snapshot restore or any other unannounced bank
  /// change (the bank's update sequence has a gap).
  GroupedTopKSelector selector_;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_CUCB_POLICY_H_
