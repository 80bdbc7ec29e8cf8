// Micro-benchmarks for the persistence hot paths that set recovery time:
// CRC-32 over a record, a round and a snapshot-sized buffer; snapshot
// encode and decode at paper scale (M=300) and at M=1e5; reading a log
// file; the one event-log scan over a recorded paper-scale run, and its
// load (read, scan and decode of every round); and a whole hosted
// recovery of a paper-scale marketplace. The *Reference rows run the
// oracles kept in tests/support (the bytewise CRC-32, the
// per-field snapshot encoder, the recovery that read its WAL files
// twice), so each optimized/reference ratio comes from one run on one
// host.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "core/cmab_hs.h"
#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/event_log.h"
#include "persist/replay.h"
#include "persist/serialize.h"
#include "runtime/marketplace.h"
#include "stats/rng.h"
#include "support/reference_crc32.h"
#include "support/reference_recover.h"
#include "support/reference_snapshot_codec.h"

namespace {

using namespace cdt;

std::string RandomBytes(std::size_t size) {
  stats::Xoshiro256 rng(size);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xFF);
  return bytes;
}

void BM_Crc32(benchmark::State& state) {
  const std::string bytes =
      RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(persist::Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(8 << 10)->Arg(4 << 20);

void BM_Crc32Reference(benchmark::State& state) {
  const std::string bytes =
      RandomBytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(testsupport::ReferenceCrc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Reference)->Arg(64)->Arg(8 << 10)->Arg(4 << 20);

// A snapshot of a CMAB-HS engine at M sellers after a few rounds past the
// select-all first round (K = 10 at M = 300, K ≈ √M above).
market::EngineSnapshot CaptureSnapshot(int m) {
  core::MechanismConfig config;
  config.num_sellers = m;
  config.num_selected = m <= 300 ? 10 : 316;
  config.num_pois = 4;
  config.num_rounds = 1 << 30;
  config.check_invariants = false;
  auto run = core::CmabHs::Create(config);
  core::CmabHs& engine = *run.value();
  for (int round = 0; round < 5; ++round) (void)engine.RunRound();
  return engine.engine().CaptureSnapshot();
}

// Encodes the snapshot into a fresh string: through persist's one raw
// cursor, or (reference) field by field through the growing string.
void EncodeEngineSnapshot(benchmark::State& state, bool reference) {
  const market::EngineSnapshot snapshot =
      CaptureSnapshot(static_cast<int>(state.range(0)));
  std::size_t size = 0;
  for (auto _ : state) {
    std::string bytes;
    if (reference) {
      testsupport::ReferenceEncodeEngineSnapshot(snapshot, &bytes);
    } else {
      persist::EncodeEngineSnapshot(snapshot, &bytes);
    }
    size = bytes.size();
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
void BM_EncodeEngineSnapshot(benchmark::State& state) {
  EncodeEngineSnapshot(state, /*reference=*/false);
}
void BM_EncodeEngineSnapshotReference(benchmark::State& state) {
  EncodeEngineSnapshot(state, /*reference=*/true);
}
BENCHMARK(BM_EncodeEngineSnapshot)->Arg(300)->Arg(100000);
BENCHMARK(BM_EncodeEngineSnapshotReference)->Arg(300)->Arg(100000);

void BM_DecodeEngineSnapshot(benchmark::State& state) {
  std::string bytes;
  persist::EncodeEngineSnapshot(
      CaptureSnapshot(static_cast<int>(state.range(0))), &bytes);
  for (auto _ : state) {
    market::EngineSnapshot decoded;
    persist::ByteReader reader(bytes);
    if (!persist::DecodeEngineSnapshot(&reader, &decoded).ok()) {
      state.SkipWithError("snapshot failed to decode");
      break;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeEngineSnapshot)->Arg(300)->Arg(100000);

// A sealed log of a paper-scale run (M=300, K=10) of `rounds` rounds,
// written to a temporary file; returns its path.
std::string RecordPaperLog(int rounds) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("cdt_micro_persist_" + std::to_string(::getpid()) + ".cdtlog"))
          .string();
  core::MechanismConfig config;
  config.num_rounds = rounds;
  config.check_invariants = false;
  auto run = core::CmabHs::Create(config);
  auto writer = persist::EventLogWriter::Open(path, config, {});
  for (int round = 0; round < rounds; ++round) {
    (void)writer.value()->AppendRound(run.value()->RunRound().value());
  }
  (void)writer.value()->Finish();
  return path;
}

constexpr int kLogRounds = 2700;

void BM_ReadFileBytes(benchmark::State& state) {
  const std::string path = RecordPaperLog(kLogRounds);
  std::size_t size = 0;
  for (auto _ : state) {
    auto bytes = persist::ReadFileBytes(path);
    size = bytes.value().size();
    benchmark::DoNotOptimize(bytes);
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ReadFileBytes);

void BM_ScanEventLog(benchmark::State& state) {
  const std::string path = RecordPaperLog(kLogRounds);
  const std::string bytes = persist::ReadFileBytes(path).value();
  std::filesystem::remove(path);
  for (auto _ : state) {
    persist::EventLogScan scan = persist::ScanEventLog(bytes);
    if (!scan.status.ok() || !scan.sealed) {
      state.SkipWithError("recorded log failed its scan");
      break;
    }
    benchmark::DoNotOptimize(scan);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_ScanEventLog);

// The process's minor page faults so far.
double MinorFaults() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

// What recovery does with a log: read it, scan it, decode every round.
// `minor_faults` is the page faults per load. A recovery loads into a
// fresh buffer and faults in its ~250 pages; in this loop glibc reuses
// the freed buffer, so the row times a load without them.
void BM_LoadRecordedLog(benchmark::State& state) {
  const std::string path = RecordPaperLog(kLogRounds);
  std::size_t size = 0;
  const double faults = MinorFaults();
  for (auto _ : state) {
    auto log = persist::LoadRecordedLog(path);
    if (!log.ok()) {
      state.SkipWithError(log.status().ToString().c_str());
      break;
    }
    size = log.value().valid_end;
    benchmark::DoNotOptimize(log.value().rolling_crc);
  }
  state.counters["minor_faults"] = benchmark::Counter(
      MinorFaults() - faults, benchmark::Counter::kAvgIterations);
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_LoadRecordedLog)->Unit(benchmark::kMicrosecond);

// A hosted paper-scale marketplace (M sellers, K=10, L=10, checkpoint
// every 100 rounds) that crashed after 2,950 rounds: its unsealed WAL
// holds ~3,000 rounds, and recovery restores the round-2,900 snapshot and
// verifies a 50-round tail, as in a svcbench paper_fleet crash. Recovery
// leaves the files as it found them, so every iteration recovers the same
// WAL.
class CrashedMarketplace {
 public:
  static constexpr const char* kId = "mkt";

  explicit CrashedMarketplace(int sellers) {
    options_.wal_dir =
        (std::filesystem::temp_directory_path() /
         ("cdt_micro_persist_recover_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(options_.wal_dir);
    std::filesystem::create_directories(options_.wal_dir);
    options_.snapshot_every = 100;
    runtime::MarketplaceSpec spec;
    spec.config.num_sellers = sellers;
    spec.config.num_selected = 10;
    spec.config.num_pois = 10;
    spec.config.check_invariants = false;
    auto marketplace = runtime::HostedMarketplace::Create(kId, spec, options_);
    runtime::Event demand;
    demand.type = runtime::EventType::kConsumerDemand;
    demand.marketplace = kId;
    demand.rounds = 2950;
    std::int64_t remaining = 0;
    ok_ = marketplace.ok() &&
          marketplace.value()->ApplyEvent(demand, 0, &remaining).ok();
    // Scope exit drops the marketplace without sealing its log: the crash.
  }
  ~CrashedMarketplace() { std::filesystem::remove_all(options_.wal_dir); }

  bool ok() const { return ok_; }
  const runtime::HostedMarketplace::Options& options() const {
    return options_;
  }

 private:
  runtime::HostedMarketplace::Options options_;
  bool ok_ = false;
};

void BM_RecoverMarketplace(benchmark::State& state) {
  const CrashedMarketplace crashed(static_cast<int>(state.range(0)));
  if (!crashed.ok()) state.SkipWithError("could not record the marketplace");
  for (auto _ : state) {
    auto recovered = runtime::HostedMarketplace::Recover(
        CrashedMarketplace::kId, crashed.options());
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(recovered.value()->rounds_settled());
  }
}
BENCHMARK(BM_RecoverMarketplace)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_RecoverMarketplaceReference(benchmark::State& state) {
  const CrashedMarketplace crashed(static_cast<int>(state.range(0)));
  if (!crashed.ok()) state.SkipWithError("could not record the marketplace");
  for (auto _ : state) {
    auto recovered = testsupport::ReferenceRecoverMarketplace(
        CrashedMarketplace::kId, crashed.options());
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(recovered.value().run->engine().current_round());
  }
}
BENCHMARK(BM_RecoverMarketplaceReference)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
