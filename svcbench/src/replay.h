// Single-thread replays of the event sequences the live service accepted,
// through runtime::HostedMarketplace's public entry points. They give the
// WAL bytes every live marketplace must match and, when traced, the
// runtime layer's per-call spans and exact I/O counts.

#ifndef SVCBENCH_REPLAY_H_
#define SVCBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service_run.h"
#include "spans.h"
#include "util/status.h"
#include "workload.h"

namespace svcbench {

struct ReplayRequest {
  const Plan* plan = nullptr;
  const ServiceResult* live = nullptr;
  std::vector<int> markets;  // indices into plan->markets
  std::string dir;           // replay WAL directory (created)
  SpanRecorder* spans = nullptr;  // null = untraced
  /// Non-empty: copy each marketplace's WAL files here at the crash point
  /// (the torn state the live crash left), for TimeRecoveries.
  std::string crash_copy_dir;
};

struct ReplayStats {
  double wall_s = 0.0;
  std::int64_t rounds = 0;
  std::vector<double> create_ms;
  /// Per replayed marketplace (same order as ReplayRequest::markets).
  std::vector<double> apply_ns;
  std::vector<std::int64_t> apply_rounds;
};

cdt::util::Status ReplayMarkets(const ReplayRequest& request,
                                ReplayStats* stats);

/// Untraced replay of every marketplace on `threads` threads.
cdt::util::Status ReplayAllParallel(const Plan& plan,
                                    const ServiceResult& live,
                                    const std::string& dir, int threads,
                                    ReplayStats* stats);

/// Byte comparison of one marketplace's sealed log, snapshot and journal.
/// Returns an empty string when identical, else what differs.
std::string CompareWal(const std::string& live_dir,
                       const std::string& replay_dir, const std::string& id);

struct RecoveryStats {
  std::vector<double> recover_ms;
  std::vector<double> log_load_ms;
  std::vector<double> restore_ms;
  std::vector<double> replay_us_per_round;
  std::uint64_t reads = 0;
  int recoveries = 0;
};

/// Recovers every marketplace from its crash-point copy, timing
/// HostedMarketplace::Recover and, separately, the persist reads and the
/// snapshot restore it is made of.
cdt::util::Status TimeRecoveries(const Plan& plan,
                                 const std::string& crash_dir,
                                 SpanRecorder* spans, RecoveryStats* stats);

}  // namespace svcbench

#endif  // SVCBENCH_REPLAY_H_
