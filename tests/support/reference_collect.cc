#include "support/reference_collect.h"

namespace cdt {
namespace testsupport {

void ReferenceCollectCoalition(
    const market::FaultInjector* injector,
    const std::vector<market::SellerFaultDraw>& fault_draws,
    bandit::QualityEnvironment* environment,
    market::ReliabilityTracker* tracker, market::RoundReport* report,
    market::CollectBuffers* buffers) {
  const std::int64_t round = report->round;
  using market::DeliveryOutcome;
  std::vector<int>& learners = buffers->learners;
  std::vector<std::vector<double>>& batches = buffers->batches;
  std::vector<std::vector<double>>& rows = buffers->rows;
  learners.clear();
  batches.clear();
  learners.reserve(report->selected.size());
  batches.reserve(report->selected.size());
  for (std::size_t j = 0; j < report->selected.size(); ++j) {
    const int seller = report->selected[j];
    // Row batches.size(): a rejected batch leaves its row to the next
    // seller.
    if (rows.size() <= batches.size()) rows.emplace_back();
    std::vector<double>& observation = rows[batches.size()];
    environment->ObserveSellerInto(seller, &observation);
    if (injector != nullptr &&
        fault_draws[j].outcome == DeliveryOutcome::kCorrupted) {
      injector->Corrupt(round, seller, &observation);
    }
    if (!market::ValidObservationBatch(observation)) {
      report->degraded = true;
      tracker->RecordFault(seller, round, market::FaultKind::kCorruptedReport);
      market::FaultEvent event;
      event.round = round;
      event.kind = market::FaultKind::kCorruptedReport;
      event.seller = seller;
      report->faults.push_back(event);
      continue;
    }
    double sum = 0.0;
    for (double q : observation) sum += q;
    report->observed_quality_revenue += sum;
    report->expected_quality_revenue +=
        static_cast<double>(environment->num_pois()) *
        environment->effective_quality(seller);
    const bool partial = injector != nullptr &&
                         fault_draws[j].outcome == DeliveryOutcome::kPartial;
    tracker->RecordDelivery(seller, round, partial);
    learners.push_back(seller);
    batches.push_back(std::move(observation));
  }
}

}  // namespace testsupport
}  // namespace cdt
