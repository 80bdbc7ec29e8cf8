// Micro-benchmarks for the persistence hot paths that set recovery time:
// CRC-32 over a record, a round and a snapshot-sized buffer; snapshot
// encode and decode at paper scale (M=300) and at M=1e5; reading a log
// file; and the one event-log scan over a recorded paper-scale run. The
// BM_Crc32Reference rows run the bytewise table loop kept as the test
// oracle (tests/support/reference_crc32.h), so the optimized/reference
// ratio comes from one run on one host.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "core/cmab_hs.h"
#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/event_log.h"
#include "persist/serialize.h"
#include "stats/rng.h"
#include "support/reference_crc32.h"
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

}  // namespace

BENCHMARK_MAIN();
