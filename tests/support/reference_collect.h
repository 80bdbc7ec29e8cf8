// The one-pass collect loop: the test oracle for
// market::CollectCoalition. Each coalition member is drawn, judged and
// accounted before the next member is touched, so every member's cache
// misses wait behind the previous member's RNG chain. Same signature and
// the same draws, fault log, tracker state, learners and batches as the
// production stage; trading_engine_test pins the two together, and
// bench/micro_engine links this for its BM_CollectCoalitionReference rows.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_COLLECT_H_
#define CDT_TESTS_SUPPORT_REFERENCE_COLLECT_H_

#include <vector>

#include "bandit/environment.h"
#include "market/faults.h"
#include "market/trading_engine.h"

namespace cdt {
namespace testsupport {

/// market::CollectCoalition, one seller at a time.
void ReferenceCollectCoalition(
    const market::FaultInjector* injector,
    const std::vector<market::SellerFaultDraw>& fault_draws,
    bandit::QualityEnvironment* environment,
    market::ReliabilityTracker* tracker, market::RoundReport* report,
    market::CollectBuffers* buffers);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_COLLECT_H_
