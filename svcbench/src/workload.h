// Workload definitions and the seeded event plan each run offers to the
// service. The plan is a pure function of (workload, seed, seconds): the
// same arguments give the same marketplaces and the same events.

#ifndef SVCBENCH_WORKLOAD_H_
#define SVCBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/event.h"

namespace svcbench {

struct WorkloadSpec {
  std::string name;
  // Fleet.
  int markets = 0;
  int sellers = 0;   // M
  int selected = 0;  // K
  int pois = 0;      // L
  std::int64_t snapshot_every = 0;
  std::int64_t compact_after_rounds = 0;  // 0 = compaction off
  int setup_reps = 0;
  // Saturation: closed batches, every marketplace demands batch_rounds.
  std::int64_t batch_rounds = 0;
  /// Expected saturated throughput, used only to turn --seconds into a
  /// fixed batch count (never read back from the clock).
  double nominal_rounds_per_s = 0.0;
  /// Seller leave before / return after each batch demand, and a leave in
  /// the crash top-up, so journal appends and journal replay are exercised.
  bool churn = false;
  // Open loop: Poisson arrivals at a fixed absolute rate.
  double rate = 0.0;             // events per second
  std::int64_t event_rounds = 0; // 1 = a round tick, else a demand event
  // Crash: every marketplace stands this many rounds past its last
  // checkpoint (and compaction base) when both shards die, crash_cycles
  // times per run.
  std::int64_t crash_tail = 0;
  int crash_cycles = 0;
  /// Marketplaces replayed through the engine-level harness when tracing.
  int engine_subset = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

constexpr int kShards = 2;

/// FNV-1a 64 over the id, mod the shard count: the service's documented
/// routing. The run checks it against MarketplaceService::ShardFor.
int RouteShard(const std::string& id, int shards);

struct Market {
  std::string id;
  int shard = 0;
  std::shared_ptr<const cdt::runtime::MarketplaceSpec> spec;
};

/// One event offered to the service. `id` is unique in the run and tags
/// every span the event produces, in the service run and in the replays.
struct Offer {
  std::uint64_t id = 0;
  int market = 0;  // index into Plan::markets
  cdt::runtime::Event event;
  /// Open loop only: due time as an offset from the phase start.
  std::int64_t due_offset_ns = 0;
};

std::int64_t RoundsOf(const cdt::runtime::Event& event);

struct CrashCycle {
  std::vector<Offer> topup;           // brings every market to crash_round
  std::vector<Offer> recovery_ticks;  // one per market after the restart
  /// Every marketplace's round cursor when both shards crash.
  std::int64_t crash_round = 0;
};

/// A stretch of measured load: closed saturation batches, then a slice of
/// the open loop whose due offsets count from the slice's start.
struct Segment {
  std::vector<std::vector<Offer>> batches;
  std::vector<Offer> open_loop;
};

struct Plan {
  const WorkloadSpec* spec = nullptr;
  std::vector<Market> markets;
  std::vector<Offer> setup;                 // create + round 1, per market
  std::vector<Segment> segments;
  std::vector<CrashCycle> crashes;  // back to back after the segments
};

Plan MakePlan(const WorkloadSpec& spec, std::uint64_t seed, double seconds);

}  // namespace svcbench

#endif  // SVCBENCH_WORKLOAD_H_
