// The engine-level traced replay: the same per-marketplace event sequences,
// rebuilt from the modules' public APIs so each layer's calls can be
// wrapped — a forwarding SelectionPolicy (bandit), timed RoundObservers
// around the InvariantChecker (market) and the DurabilityGuard (persist),
// the StackelbergSolver API on the coalitions the run produced (game) and
// an armed TelemetryObserver (obs). Its WAL must match the runtime replay
// byte for byte, which proves the harness runs the hosted economics.

#ifndef SVCBENCH_LAYERS_H_
#define SVCBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service_run.h"
#include "spans.h"
#include "util/status.h"
#include "workload.h"

namespace svcbench {

struct LayerStats {
  double wall_s = 0.0;  // create-to-finish replay time, all marketplaces
  std::int64_t rounds = 0;
  std::vector<double> first_round_ms;
  std::vector<double> round_us;       // RunRound minus invariants and WAL
  std::vector<double> invariants_us;  // InvariantChecker::OnRound
  std::vector<double> append_us;      // DurabilityGuard on plain rounds
  std::vector<double> snapshot_ms;    // DurabilityGuard on checkpoint rounds
  std::vector<double> select_us;
  std::vector<double> observe_us;
  std::vector<double> solve_us;
  std::vector<double> capture_us;
  std::vector<double> telemetry_us;
  double snapshot_bytes = 0.0;
};

cdt::util::Status RunEngineLayers(const Plan& plan, const ServiceResult& live,
                                  const std::vector<int>& markets,
                                  const std::string& dir, SpanRecorder* spans,
                                  LayerStats* stats);

}  // namespace svcbench

#endif  // SVCBENCH_LAYERS_H_
