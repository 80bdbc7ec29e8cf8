#include "market/types.h"

namespace cdt {
namespace market {

using util::Status;

Status Job::Validate() const {
  if (num_pois <= 0) return Status::InvalidArgument("job needs >= 1 PoI");
  if (num_rounds <= 0) {
    return Status::InvalidArgument("job needs >= 1 round");
  }
  if (!(round_duration > 0.0)) {
    return Status::InvalidArgument("round duration must be > 0");
  }
  return Status::OK();
}

int RoundReport::CountFaults(FaultKind kind) const {
  int count = 0;
  for (const FaultEvent& e : faults) {
    if (e.kind == kind) ++count;
  }
  return count;
}

std::vector<int> DeliveredDataSellers(const RoundReport& report) {
  if (report.voided) return {};
  std::vector<int> delivered;
  delivered.reserve(report.selected.size());
  for (int seller : report.selected) {
    bool corrupted = false;
    for (const FaultEvent& e : report.faults) {
      if (e.kind == FaultKind::kCorruptedReport && e.seller == seller) {
        corrupted = true;
        break;
      }
    }
    if (!corrupted) delivered.push_back(seller);
  }
  return delivered;
}

}  // namespace market
}  // namespace cdt
