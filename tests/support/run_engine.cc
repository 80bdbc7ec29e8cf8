#include "support/run_engine.h"

namespace cdt {
namespace testsupport {

util::Status RunEngineToEnd(
    market::TradingEngine* engine,
    const std::function<void(const market::RoundReport&)>& callback) {
  while (engine->current_round() < engine->config().job.num_rounds) {
    util::Result<market::RoundReport> report = engine->RunRound();
    if (!report.ok()) {
      if (engine->budget_exhausted() &&
          report.status().code() == util::StatusCode::kFailedPrecondition) {
        return util::Status::OK();
      }
      return report.status();
    }
    if (callback) callback(report.value());
  }
  return util::Status::OK();
}

}  // namespace testsupport
}  // namespace cdt
