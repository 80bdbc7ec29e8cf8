// svcbench — end-to-end benchmark of the hosted marketplace service.
//
//   svcbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//            [--wal-dir DIR]
//
// WAL files of every phase go under --wal-dir (default: --out-dir); the
// run reports that directory's filesystem and warns when it is not tmpfs.
// --trace 0: one untraced service run; prints the end-to-end metrics.
// --trace 1: the same service run, then single-thread traced replays of the
//            accepted event sequences; prints the per-layer metrics, the
//            self-time table, and writes a Chrome trace under DIR/traces.
//
// Every run checks its outputs before printing a number: the admission
// ledger balances, rounds settled equal rounds offered, both crashed shards
// were restarted and every marketplace recovered, and every marketplace's
// sealed WAL is byte-identical to a single-thread replay of its events.
// Any failed check exits 1 without a result line.

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "persist/io_hooks.h"
#include "replay.h"
#include "service_run.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace svcbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string out_dir;
  std::string wal_dir;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      *error = "expected --flag value pairs, got '" + key + "'";
      return false;
    }
    values[key.substr(2)] = argv[++i];
  }
  for (const auto& entry : values) {
    const std::string& key = entry.first;
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "out-dir" && key != "wal-dir") {
      *error = "unknown flag --" + key;
      return false;
    }
  }
  try {
    args->workload = values.at("workload");
    args->seed = std::stoull(values.at("seed"));
    args->seconds = std::stoi(values.at("seconds"));
    args->trace = std::stoi(values.at("trace"));
    args->out_dir = values.at("out-dir");
    args->wal_dir = values.count("wal-dir") ? values.at("wal-dir")
                                            : args->out_dir;
  } catch (const std::exception&) {
    *error = "need --workload, --seed, --seconds, --trace and --out-dir";
    return false;
  }
  if (args->seconds < 1 || args->seconds > 600) {
    *error = "--seconds must be 1..600";
    return false;
  }
  if (args->trace != 0 && args->trace != 1) {
    *error = "--trace must be 0 or 1";
    return false;
  }
  return true;
}

std::string FilesystemName(const std::string& path, bool* tmpfs) {
  struct statfs info {};
  *tmpfs = false;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: *tmpfs = true; return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

/// Aggregate (steal, total) jiffies from /proc/stat's first line.
std::pair<double, double> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double values[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  double total = 0.0;
  for (double& v : values) {
    in >> v;
    total += v;
  }
  return {values[7], total};
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const double value = std::isfinite(entries_[i].value)
                               ? entries_[i].value
                               : 0.0;
      out += (i ? ", " : "") + std::string("\"") + entries_[i].name +
             "\": {\"value\": " + Fmt(value) + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }
  void PrintTable() const {
    for (const auto& e : entries_) {
      std::printf("  %-34s %14s %s\n", e.name.c_str(), Short(e.value).c_str(),
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Returns the failed checks (empty when every check holds).
std::vector<std::string> CheckService(const Plan& plan,
                                      const ServiceResult& live) {
  std::vector<std::string> failures;
  const auto& stats = live.stats;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  std::uint64_t shed_admission = 0;
  for (const auto& entry : stats.shed) shed_admission += entry.second;
  check(stats.submitted == live.offered,
        "ledger: service counted " + std::to_string(stats.submitted) +
            " submissions, generator offered " + std::to_string(live.offered));
  check(stats.accepted == live.accepted,
        "ledger: service accepted " + std::to_string(stats.accepted) +
            ", generator saw " + std::to_string(live.accepted));
  check(shed_admission == live.shed,
        "ledger: shed-by-reason sums to " + std::to_string(shed_admission) +
            ", generator saw " + std::to_string(live.shed) + " sheds");
  check(live.accepted + live.coalesced + live.shed == live.offered,
        "ledger: accepted + coalesced + shed != offered");
  check((live.coalesced == 0) == (stats.coalesced_rounds == 0),
        "ledger: coalesced events and coalesced rounds disagree");
  check(stats.events_processed == live.accepted,
        "ledger: " + std::to_string(stats.events_processed) +
            " events processed of " + std::to_string(live.accepted) +
            " accepted");
  check(stats.rounds_settled == live.rounds_offered,
        "rounds: settled " + std::to_string(stats.rounds_settled) +
            " of " + std::to_string(live.rounds_offered) + " demanded");
  check(live.unsettled == 0,
        std::to_string(live.unsettled) + " open-loop events never settled");
  std::uint64_t recoveries = 0;
  for (const auto& shard : stats.shards) recoveries += shard.recoveries;
  const auto cycles = static_cast<std::uint64_t>(plan.spec->crash_cycles);
  check(recoveries == plan.markets.size() * cycles,
        "recovery: " + std::to_string(recoveries) + " recoveries, expected " +
            std::to_string(plan.markets.size() * cycles));
  check(stats.restarts == kShards * cycles,
        "recovery: supervisor restarted " + std::to_string(stats.restarts) +
            " shards, expected " + std::to_string(kShards * cycles));
  check(stats.durability.degrades == 0 && stats.durability.quarantines == 0,
        "durability: a guard degraded or quarantined without injected faults");
  return failures;
}

std::vector<std::string> CheckWal(const Plan& plan, const std::string& live,
                                  const std::string& replay) {
  std::vector<std::string> failures;
  for (const Market& market : plan.markets) {
    const std::string diff = CompareWal(live, replay, market.id);
    if (!diff.empty()) failures.push_back("wal: " + diff);
  }
  return failures;
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const auto& name : WorkloadNames()) names += " " + name;
    std::fprintf(stderr, "svcbench: unknown workload '%s' (have:%s)\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  const Plan plan = MakePlan(*spec, args.seed, args.seconds);
  const std::string work = args.wal_dir + "/work-" + spec->name + "-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  // WAL files of every phase live under `work`; removed on every exit path.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{work};
  bool tmpfs = false;
  const std::string fs = FilesystemName(work, &tmpfs);
  const unsigned nproc = std::thread::hardware_concurrency();
  const auto cpu_start = CpuJiffies();

  std::printf("svcbench workload=%s seed=%llu seconds=%d trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("fleet: %d marketplaces, M=%d K=%d L=%d, snapshot_every=%lld, "
              "compaction=%lld, %d shards\n",
              spec->markets, spec->sellers, spec->selected, spec->pois,
              static_cast<long long>(spec->snapshot_every),
              static_cast<long long>(spec->compact_after_rounds), kShards);
  if (!tmpfs) {
    std::printf("WARNING: WAL directory is on %s, not tmpfs: every snapshot "
                "fsync, rename and log create pays this disk's latency, and "
                "that disk's noise is in every number below\n",
                fs.c_str());
  }
  std::fflush(stdout);

  ServiceResult live;
  cdt::util::Status status = RunService(plan, work + "/live", &live);
  // Steal over the service run, where every end-to-end number is taken.
  const auto cpu_end = CpuJiffies();
  if (!status.ok()) {
    std::printf("FAIL: service run: %s\n", status.ToString().c_str());
    return 1;
  }
  std::vector<std::string> failures = CheckService(plan, live);

  SpanRecorder spans;
  SpanRecorder* tracer = args.trace == 1 ? &spans : nullptr;
  const std::string replay_dir = work + "/replay";
  const std::string crash_dir = work + "/crash";
  ReplayStats replay;
  std::uint64_t io_counts[cdt::persist::kNumIoOps] = {0, 0, 0, 0};
  if (tracer == nullptr) {
    status = ReplayAllParallel(plan, live, replay_dir, kShards, &replay);
  } else {
    ReplayRequest request;
    request.plan = &plan;
    request.live = &live;
    request.dir = replay_dir;
    request.spans = tracer;
    request.crash_copy_dir = crash_dir;
    for (std::size_t m = 0; m < plan.markets.size(); ++m) {
      request.markets.push_back(static_cast<int>(m));
    }
    cdt::persist::IoHooks& hooks = cdt::persist::IoHooks::Instance();
    hooks.Reset();
    hooks.EnableCounting();
    status = ReplayMarkets(request, &replay);
    for (int op = 0; op < cdt::persist::kNumIoOps; ++op) {
      io_counts[op] = hooks.ops_seen(static_cast<cdt::persist::IoOp>(op));
    }
    hooks.Reset();
  }
  if (!status.ok()) {
    std::printf("FAIL: replay: %s\n", status.ToString().c_str());
    return 1;
  }
  for (const auto& failure : CheckWal(plan, live.wal_dir, replay_dir)) {
    failures.push_back(failure);
  }

  const double steal_frac = Ratio(cpu_end.first - cpu_start.first,
                                  cpu_end.second - cpu_start.second);
  const auto& stats = live.stats;
  std::uint64_t shed_admission = 0;
  for (const auto& entry : stats.shed) shed_admission += entry.second;

  std::printf("context: wal_fs=%s tmpfs=%s nproc=%u steal_frac=%s\n",
              fs.c_str(), tmpfs ? "yes" : "no", nproc,
              Short(steal_frac).c_str());
  std::printf("setup: %zu reps, setup_s median %s [", live.setup_s.size(),
              Short(Median(live.setup_s)).c_str());
  for (double v : live.setup_s) std::printf(" %s", Short(v).c_str());
  std::printf(" ]\n");
  std::printf("saturation: %zu batches of %lld rounds x %d marketplaces, "
              "rounds/s median %s min %s max %s\n",
              live.batch_rounds_per_s.size(),
              static_cast<long long>(spec->batch_rounds), spec->markets,
              Short(Median(live.batch_rounds_per_s)).c_str(),
              Short(Percentile(live.batch_rounds_per_s, 0.0)).c_str(),
              Short(Percentile(live.batch_rounds_per_s, 1.0)).c_str());
  std::printf("open loop: %zu events in %zu slices at %g/s, %lld rounds "
              "each; settle ms "
              "p10 %s p25 %s p50 %s p75 %s p90 %s p99 %s p99.9 %s (samples "
              "%zu, beyond p99 %zu); generator late ms p50 %s p99 %s\n",
              live.settle_ms.size(), plan.segments.size(), spec->rate,
              static_cast<long long>(spec->event_rounds),
              Short(Percentile(live.settle_ms, 0.1)).c_str(),
              Short(Percentile(live.settle_ms, 0.25)).c_str(),
              Short(Median(live.settle_ms)).c_str(),
              Short(Percentile(live.settle_ms, 0.75)).c_str(),
              Short(Percentile(live.settle_ms, 0.9)).c_str(),
              Short(Percentile(live.settle_ms, 0.99)).c_str(),
              Short(Percentile(live.settle_ms, 0.999)).c_str(),
              live.settle_ms.size(), SamplesBeyond(live.settle_ms, 0.99),
              Short(Median(live.late_ms)).c_str(),
              Short(Percentile(live.late_ms, 0.99)).c_str());
  std::printf("crash: %zu cycles, both shards killed with every marketplace "
              "%lld rounds past its checkpoint; recover_s median %s [",
              live.recover_s.size(), static_cast<long long>(spec->crash_tail),
              Short(Median(live.recover_s)).c_str());
  for (double v : live.recover_s) std::printf(" %s", Short(v).c_str());
  std::printf(" ]\n");
  std::printf("ledger: offered %llu = accepted %llu + coalesced %llu + shed "
              "%llu; processed %llu; worker-shed %llu; rounds settled %llu of "
              "%llu offered; served %llu\n",
              static_cast<unsigned long long>(live.offered),
              static_cast<unsigned long long>(live.accepted),
              static_cast<unsigned long long>(live.coalesced),
              static_cast<unsigned long long>(shed_admission),
              static_cast<unsigned long long>(stats.events_processed),
              static_cast<unsigned long long>(stats.total_shed -
                                              shed_admission),
              static_cast<unsigned long long>(stats.rounds_settled),
              static_cast<unsigned long long>(live.rounds_offered),
              static_cast<unsigned long long>(live.served));
  std::printf("replay: %lld rounds on %s in %s s; WAL byte-identity checked "
              "for %zu marketplaces\n",
              static_cast<long long>(replay.rounds),
              tracer == nullptr ? "2 threads" : "1 thread (traced)",
              Short(replay.wall_s).c_str(), plan.markets.size());
  if (!failures.empty()) {
    for (const auto& failure : failures) {
      std::printf("FAIL: %s\n", failure.c_str());
    }
    return 1;
  }
  std::printf("checks: ledger balanced, rounds settled = demanded, every "
              "crash restarted %d shards and recovered %zu marketplaces, WALs "
              "byte-identical\n",
              kShards, plan.markets.size());

  MetricSet metrics;
  if (tracer == nullptr) {
    metrics.Add("setup_s", Median(live.setup_s), "s");
    metrics.Add("rounds_per_s", Median(live.batch_rounds_per_s), "1/s");
    metrics.Add("settle_p50_ms", Median(live.settle_ms), "ms");
    metrics.Add("served_frac",
                Ratio(static_cast<double>(live.served),
                      static_cast<double>(live.offered)),
                "frac");
    metrics.Add("recover_s", Median(live.recover_s), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("wal_bytes_per_round",
                Ratio(static_cast<double>(live.wal_bytes),
                      static_cast<double>(stats.rounds_settled)),
                "B");
  } else {
    RecoveryStats recovery;
    status = TimeRecoveries(plan, crash_dir, tracer, &recovery);
    if (!status.ok()) {
      std::printf("FAIL: crash-point recovery: %s\n",
                  status.ToString().c_str());
      return 1;
    }
    std::vector<int> subset;
    for (int m = 0; m < std::min<int>(spec->engine_subset, spec->markets);
         ++m) {
      subset.push_back(m);
    }
    // Untraced baseline of the subset, for the tracing overhead.
    ReplayRequest baseline;
    baseline.plan = &plan;
    baseline.live = &live;
    baseline.dir = work + "/untraced";
    baseline.markets = subset;
    ReplayStats untraced;
    status = ReplayMarkets(baseline, &untraced);
    LayerStats layers;
    if (status.ok()) {
      status = RunEngineLayers(plan, live, subset, work + "/engine", tracer,
                               &layers);
    }
    if (!status.ok()) {
      std::printf("FAIL: engine-level replay: %s\n",
                  status.ToString().c_str());
      return 1;
    }
    for (int m : subset) {
      const std::string diff = CompareWal(
          replay_dir, work + "/engine",
          plan.markets[static_cast<std::size_t>(m)].id);
      if (!diff.empty()) {
        std::printf("FAIL: engine-level harness diverged from the hosted "
                    "marketplace: %s\n",
                    diff.c_str());
        return 1;
      }
    }

    double apply_ns = 0.0, subset_apply_ns = 0.0;
    std::int64_t apply_rounds = 0;
    for (std::size_t k = 0; k < replay.apply_ns.size(); ++k) {
      apply_ns += replay.apply_ns[k];
      apply_rounds += replay.apply_rounds[k];
    }
    for (double ns : untraced.apply_ns) subset_apply_ns += ns;
    double max_shard_rounds = 0.0, sum_shard_rounds = 0.0;
    std::size_t high_water = 0;
    for (const auto& shard : stats.shards) {
      max_shard_rounds = std::max(max_shard_rounds,
                                  static_cast<double>(shard.rounds_settled));
      sum_shard_rounds += static_cast<double>(shard.rounds_settled);
      high_water = std::max(high_water, shard.queue_high_water);
    }
    const double replay_rounds = static_cast<double>(replay.rounds);

    metrics.Add("runtime.submit_us_p50", Median(live.submit_us), "us");
    metrics.Add("runtime.submit_us_p99", Percentile(live.submit_us, 0.99),
                "us");
    metrics.Add("runtime.apply_us_per_round",
                Ratio(apply_ns, static_cast<double>(apply_rounds)) / 1e3, "us");
    metrics.Add("runtime.create_ms_p50", Median(replay.create_ms), "ms");
    metrics.Add("runtime.recover_ms_p50", Median(recovery.recover_ms), "ms");
    metrics.Add("runtime.recover_ms_max", Percentile(recovery.recover_ms, 1.0),
                "ms");
    metrics.Add("runtime.queue_high_water", static_cast<double>(high_water),
                "count");
    metrics.Add("runtime.shard_skew",
                Ratio(max_shard_rounds,
                      sum_shard_rounds / static_cast<double>(kShards)),
                "ratio");
    metrics.Add("runtime.shed_total", static_cast<double>(stats.total_shed),
                "count");
    metrics.Add("runtime.coalesced_rounds",
                static_cast<double>(stats.coalesced_rounds), "count");
    metrics.Add("runtime.settle_p90_ms", Percentile(live.settle_ms, 0.9), "ms");
    metrics.Add("runtime.settle_p99_ms", Percentile(live.settle_ms, 0.99),
                "ms");
    metrics.Add("runtime.settle_p999_ms", Percentile(live.settle_ms, 0.999),
                "ms");
    metrics.Add("runtime.settle_samples",
                static_cast<double>(live.settle_ms.size()), "count");
    metrics.Add("runtime.generator_late_ms_p99",
                Percentile(live.late_ms, 0.99), "ms");
    metrics.Add("market.round_us_p50", Median(layers.round_us), "us");
    metrics.Add("market.first_round_ms", Median(layers.first_round_ms), "ms");
    metrics.Add("market.invariants_us_p50", Median(layers.invariants_us), "us");
    metrics.Add("market.snapshot_capture_us", Median(layers.capture_us), "us");
    metrics.Add("market.snapshot_restore_ms", Median(recovery.restore_ms),
                "ms");
    metrics.Add("bandit.select_us_p50", Median(layers.select_us), "us");
    metrics.Add("bandit.observe_us_p50", Median(layers.observe_us), "us");
    metrics.Add("game.solve_us_p50", Median(layers.solve_us), "us");
    metrics.Add("persist.append_us_p50", Median(layers.append_us), "us");
    metrics.Add("persist.snapshot_write_ms_p50", Median(layers.snapshot_ms),
                "ms");
    metrics.Add("persist.snapshot_bytes", layers.snapshot_bytes, "B");
    metrics.Add("persist.writes_per_round",
                Ratio(static_cast<double>(io_counts[0]), replay_rounds),
                "count/round");
    metrics.Add("persist.fsyncs_per_round",
                Ratio(static_cast<double>(io_counts[1]), replay_rounds),
                "count/round");
    metrics.Add("persist.renames_per_round",
                Ratio(static_cast<double>(io_counts[2]), replay_rounds),
                "count/round");
    metrics.Add("persist.reads_per_recovery",
                Ratio(static_cast<double>(recovery.reads),
                      static_cast<double>(recovery.recoveries)),
                "count");
    metrics.Add("persist.log_load_ms_p50", Median(recovery.log_load_ms), "ms");
    metrics.Add("persist.replay_us_per_round",
                Median(recovery.replay_us_per_round), "us");
    metrics.Add("obs.telemetry_round_us", Median(layers.telemetry_us), "us");
    metrics.Add("trace_overhead_frac",
                Ratio(layers.wall_s, untraced.wall_s) - 1.0, "frac");
    metrics.Add("host.steal_frac", steal_frac, "frac");
    metrics.Add("host.wal_tmpfs", tmpfs ? 1.0 : 0.0, "flag");
    metrics.Add("host.nproc", static_cast<double>(nproc), "count");

    // Self time per span name, and whether the engine-level blocking steps
    // account for what HostedMarketplace::ApplyEvent took on the same
    // marketplaces in the runtime replay.
    static const char* kBlocking[] = {
        "market.round",      "bandit.select",   "bandit.observe",
        "market.invariants", "persist.wal",     "core.metrics",
        "persist.journal",   "market.set_seller_active"};
    double blocking_ns = 0.0;
    for (const char* name : kBlocking) {
      if (const SpanStats* found = spans.Find(name)) {
        blocking_ns += found->total_self_ns;
      }
    }
    const double explained = Ratio(blocking_ns, subset_apply_ns);
    metrics.Add("bench.apply_explained_frac", explained, "frac");

    std::printf("\nself time by span (%lld engine-level rounds on %zu "
                "marketplaces; %lld runtime-replay rounds on %zu):\n",
                static_cast<long long>(layers.rounds), subset.size(),
                static_cast<long long>(replay.rounds), plan.markets.size());
    std::printf("  %-28s %9s %12s %12s %12s\n", "span", "count", "total ms",
                "self ms", "self/round us");
    for (const auto& entry : spans.stats()) {
      const bool engine = entry.first.rfind("runtime.", 0) != 0 &&
                          entry.first.rfind("persist.log_load", 0) != 0 &&
                          entry.first.rfind("persist.snapshot_read", 0) != 0;
      const double rounds = engine ? static_cast<double>(layers.rounds)
                                   : replay_rounds;
      std::printf("  %-28s %9zu %12.3f %12.3f %12.3f\n", entry.first.c_str(),
                  entry.second.duration_ns.size(), entry.second.total_ns / 1e6,
                  entry.second.total_self_ns / 1e6,
                  Ratio(entry.second.total_self_ns, rounds) / 1e3);
    }
    std::printf("blocking steps (market.round self + bandit + invariants + "
                "WAL + metrics + journal) sum to %.1f%% of "
                "HostedMarketplace::ApplyEvent time on the same %zu "
                "marketplaces: %s\n",
                explained * 100.0, subset.size(),
                std::fabs(explained - 1.0) <= 0.1
                    ? "they account for runtime.apply_us_per_round"
                    : "they do NOT account for runtime.apply_us_per_round "
                      "(the gap is tracing overhead or untraced work)");

    const std::string trace_dir = args.out_dir + "/traces";
    std::filesystem::create_directories(trace_dir);
    // One file per workload; the latest traced run replaces the last one.
    const std::string trace_path = trace_dir + "/" + spec->name + ".trace.json";
    for (const EventTiming& timing : live.timings) {
      tracer->AddRoot("runtime.submit", timing.submit_start_ns,
                      timing.submit_end_ns, timing.id, kGeneratorTrack);
      if (timing.settled_ns != 0) {
        tracer->AddRoot("runtime.settle", timing.due_ns, timing.settled_ns,
                        timing.id,
                        kShardTrackBase + timing.shard);
      }
    }
    if (!tracer->WriteChromeTrace(trace_path)) {
      std::printf("FAIL: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace: %s (%zu spans dropped past the cap)\n",
                trace_path.c_str(), tracer->dropped());
  }

  std::printf("\nmetrics:\n");
  metrics.PrintTable();
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(live.offered),
              static_cast<unsigned long long>(live.offered - live.served),
              metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  svcbench::Args args;
  std::string error;
  if (!svcbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "svcbench: %s\n", error.c_str());
    return 2;
  }
  return svcbench::Run(args);
}
