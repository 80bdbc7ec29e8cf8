// The round loop for tests that build a market::TradingEngine directly:
// every remaining round of the campaign, with a consumer-budget stop ending
// it cleanly. Production drives the same loop through core::CmabHs::RunAll.

#ifndef CDT_TESTS_SUPPORT_RUN_ENGINE_H_
#define CDT_TESTS_SUPPORT_RUN_ENGINE_H_

#include <functional>

#include "market/trading_engine.h"
#include "util/status.h"

namespace cdt {
namespace testsupport {

/// Runs `engine`'s remaining rounds, invoking `callback` (may be null) per
/// settled round. A configured consumer budget running out is a clean stop
/// (OK, with budget_exhausted() true); any other failed round, including
/// the closing audit's violation at a budget stop, returns its status.
util::Status RunEngineToEnd(
    market::TradingEngine* engine,
    const std::function<void(const market::RoundReport&)>& callback =
        nullptr);

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_RUN_ENGINE_H_
