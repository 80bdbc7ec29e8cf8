#include "bandit/cucb_policy.h"

#include <numeric>

#include "obs/tracer.h"

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

Result<CucbPolicy> CucbPolicy::Create(const CucbOptions& options) {
  if (options.num_sellers <= 0) {
    return Status::InvalidArgument("num_sellers must be > 0");
  }
  if (options.num_selected <= 0 ||
      options.num_selected > options.num_sellers) {
    return Status::InvalidArgument("need 1 <= K <= M");
  }
  CucbOptions resolved = options;
  if (resolved.exploration <= 0.0) {
    // Paper default: the (K+1) factor of Eq. (19).
    resolved.exploration = static_cast<double>(resolved.num_selected + 1);
  }
  Result<EstimatorBank> bank =
      EstimatorBank::Create(resolved.num_sellers, resolved.exploration);
  if (!bank.ok()) return bank.status();
  return CucbPolicy(resolved, std::move(bank).value());
}

Result<std::vector<int>> CucbPolicy::SelectRound(std::int64_t round) {
  std::vector<int> selected;
  CDT_RETURN_NOT_OK(SelectRoundInto(round, &selected));
  return selected;
}

Status CucbPolicy::SelectRoundInto(std::int64_t round,
                                   std::vector<int>* out) {
  if (round < 1) {
    return Status::InvalidArgument("rounds are 1-based");
  }
  if (round == 1 && options_.select_all_first_round) {
    // Initial exploration: select every seller (Algorithm 1, steps 2-4).
    out->resize(static_cast<std::size_t>(options_.num_sellers));
    std::iota(out->begin(), out->end(), 0);
    return Status::OK();
  }
  // No full-M rescan: the grouped selector examines only the entries that
  // compete for the top K.
  CDT_SPAN("bandit.topk");
  selector_.SelectInto(bank_, options_.num_selected, out);
  return Status::OK();
}

Status CucbPolicy::Observe(
    const std::vector<int>& selected,
    const std::vector<std::vector<double>>& observations) {
  if (selected.size() != observations.size()) {
    return Status::InvalidArgument(
        "selected/observations size mismatch");
  }
  for (std::size_t j = 0; j < selected.size(); ++j) {
    CDT_RETURN_NOT_OK(bank_.Update(selected[j], observations[j]));
    selector_.Invalidate(bank_, selected[j]);
  }
  return Status::OK();
}

}  // namespace bandit
}  // namespace cdt
