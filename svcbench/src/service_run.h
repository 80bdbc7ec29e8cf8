// The untraced service run: drives runtime::MarketplaceService from one
// generator thread through set-up, saturation batches, the open loop and a
// two-shard crash, then drains. Every end-to-end metric comes from here.

#ifndef SVCBENCH_SERVICE_RUN_H_
#define SVCBENCH_SERVICE_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/event.h"
#include "runtime/service.h"
#include "util/status.h"
#include "workload.h"

namespace svcbench {

/// Generator-side timestamps of one offered event (steady clock, ns).
struct EventTiming {
  std::uint64_t id = 0;
  int shard = 0;
  std::int64_t submit_start_ns = 0;
  std::int64_t submit_end_ns = 0;
  std::int64_t due_ns = 0;      // open loop only, else 0
  std::int64_t settled_ns = 0;  // open loop only, else 0
};

struct ServiceResult {
  std::string wal_dir;  // the live service's WAL directory
  std::vector<double> setup_s;
  std::vector<double> batch_rounds_per_s;
  std::vector<double> settle_ms;  // open-loop events, due -> settled
  std::vector<double> late_ms;    // generator lateness per open-loop event
  std::vector<double> submit_us;  // every Submit of the live service
  std::vector<double> recover_s;  // one per crash cycle

  // Ledger, as counted by the generator.
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t shed = 0;
  std::uint64_t unsettled = 0;
  std::uint64_t rounds_offered = 0;
  cdt::runtime::MarketplaceService::Stats stats;  // after the drain
  std::uint64_t served = 0;

  std::uint64_t wal_bytes = 0;
  std::vector<EventTiming> timings;
  /// Accepted events per marketplace, in submission (= FIFO) order.
  std::vector<std::vector<Offer>> accepted_by_market;
  /// Index into accepted_by_market[m] of the first event after the last
  /// crash.
  std::vector<std::size_t> crash_index;
};

/// Runs the plan against a fresh service under `wal_root`. A non-OK status
/// means the run could not complete (a hang, a failed call); ledger and
/// recovery checks are made by the caller from the result.
cdt::util::Status RunService(const Plan& plan, const std::string& wal_root,
                             ServiceResult* result);

/// Bytes of every regular file under `dir`.
std::uint64_t DirectoryBytes(const std::string& dir);

}  // namespace svcbench

#endif  // SVCBENCH_SERVICE_RUN_H_
