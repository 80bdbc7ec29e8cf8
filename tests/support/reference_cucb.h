// Full-rescan CUCB selection: the test oracle for the production selection
// path (GroupedTopKSelector inside CucbPolicy).
//
// Every round scores all M arms with Eq. (19) and takes the top K with an
// iota + partial_sort, the shape selection had before the SoA bank and the
// incremental selector. Tests pin the production path byte-identical to
// it, and the bench/ micro benchmarks link it for their *Reference rows.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_CUCB_H_
#define CDT_TESTS_SUPPORT_REFERENCE_CUCB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bandit/arm.h"
#include "bandit/cucb_policy.h"
#include "bandit/environment.h"
#include "core/config.h"
#include "market/trading_engine.h"
#include "util/status.h"

namespace cdt {
namespace testsupport {

/// The pre-SoA Eq. (19) scan, loop shape preserved: a per-arm branch on
/// the raw observation counter plus a uint64→double conversion inside the
/// loop (what the row-wise bank compiled to). Values are identical to
/// EstimatorBank::UcbValuesInto, so the oracle stays byte-compatible while
/// its benchmark measures the true pre-SoA scan cost.
void UcbValuesReferenceInto(const bandit::EstimatorBank& bank,
                            std::vector<double>* out);

/// The pre-optimization iota + partial_sort top-K (descending value,
/// ascending index on ties). `out` is used as the full candidate ordering
/// internally, so its capacity settles at values.size().
void TopKIndicesPartialSortInto(const std::vector<double>& values, int k,
                                std::vector<int>* out);

/// CUCB (Algorithm 1) that rescans every arm every round through the two
/// functions above. Same options, bank and Observe as bandit::CucbPolicy,
/// so the two select and price identically round for round.
class ReferenceCucbPolicy : public bandit::SelectionPolicy {
 public:
  static util::Result<ReferenceCucbPolicy> Create(
      const bandit::CucbOptions& options);

  std::string name() const override { return "cmab-hs"; }
  int num_sellers() const override { return options_.num_sellers; }

  util::Result<std::vector<int>> SelectRound(std::int64_t round) override;
  util::Status SelectRoundInto(std::int64_t round,
                               std::vector<int>* out) override;
  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  const bandit::EstimatorBank* estimator() const override { return &bank_; }
  bool snapshot_safe() const override { return true; }
  bandit::EstimatorBank* mutable_estimator() override { return &bank_; }

 private:
  ReferenceCucbPolicy(const bandit::CucbOptions& options,
                      bandit::EstimatorBank bank)
      : options_(options), bank_(std::move(bank)) {}

  bandit::CucbOptions options_;
  bandit::EstimatorBank bank_;
  std::vector<double> ucb_scratch_;
};

/// A CMAB-HS trading engine wired the way core::CmabHs wires one (minus
/// its metrics collector), selecting through either the production
/// CucbPolicy or the ReferenceCucbPolicy oracle.
struct CucbEngine {
  std::unique_ptr<bandit::QualityEnvironment> environment;
  std::unique_ptr<market::TradingEngine> engine;
};
util::Result<CucbEngine> MakeCucbEngine(const core::MechanismConfig& config,
                                        bool reference);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_CUCB_H_
