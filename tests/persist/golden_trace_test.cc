// The replay upgrade gate: a golden recorded trace checked into
// tests/data/ must replay bit-for-bit on every build. Any change to the
// economics, the bandit updates, the fault draws, the RNG, or the codec
// that alters a single byte of a round fails this suite — which is the
// point: such changes must consciously regenerate the golden trace
// (CDT_REGEN_GOLDEN=1 ./golden_trace_test) and show up in review as a
// tests/data/ diff. Also proves version skew fails closed: a log written
// by a future format version must be rejected, never half-read.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "core/cmab_hs.h"
#include "core/config.h"
#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/event_log.h"
#include "persist/recorder.h"
#include "persist/replay.h"
#include "persist/serialize.h"
#include "support/run_engine.h"
#include "support/transfer_trail.h"

namespace cdt {
namespace persist {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(CDT_TEST_DATA_DIR) + "/data/" + name;
}

/// The golden campaign: small enough to replay in well under a second,
/// rich enough to exercise faults, re-settlement, partial delivery and
/// quarantine. The checked-in trace was recorded when the config still
/// carried a transfer-history flag, set to 1; decoding ignores it, and a
/// regenerated trace writes 0 there.
core::MechanismConfig GoldenConfig() {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = 200;
  config.seed = 0x601D;
  config.faults.default_rate = 0.08;
  config.faults.partial_rate = 0.06;
  config.faults.settlement_failure_rate = 0.05;
  return config;
}

class GoldenTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (std::getenv("CDT_REGEN_GOLDEN") == nullptr) return;
    // Regeneration: record the golden campaign straight into the source
    // tree, then write the digest file next to it.
    const core::MechanismConfig config = GoldenConfig();
    auto run = core::CmabHs::Create(config);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    RunRecorder::Options options;
    options.log_path = GoldenPath("golden_trace.cdtlog");
    auto recorder = RunRecorder::Create(options, config, {});
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    RunRecorder* rec = recorder.value().get();
    run.value()->mutable_engine().AddObserver(std::move(recorder).value());
    ASSERT_TRUE(run.value()->RunAll().ok());
    ASSERT_TRUE(rec->Finish().ok());
    auto bytes = ReadFileBytes(options.log_path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(AtomicWriteFile(GoldenPath("golden_trace.digest"),
                                std::to_string(Crc32(bytes.value())) + "\n")
                    .ok());
  }

  std::string ReadGolden(const std::string& name) {
    auto bytes = ReadFileBytes(GoldenPath(name));
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? std::move(bytes).value() : std::string();
  }
};

TEST_F(GoldenTraceTest, DigestMatchesCheckedInTrace) {
  // First line of defence: the trace file itself is exactly the bytes the
  // digest was computed over (catches accidental edits, EOL mangling,
  // git filters).
  const std::string trace = ReadGolden("golden_trace.cdtlog");
  ASSERT_FALSE(trace.empty());
  const std::string digest = ReadGolden("golden_trace.digest");
  EXPECT_EQ(std::to_string(Crc32(trace)) + "\n", digest);
}

TEST_F(GoldenTraceTest, GoldenTraceLoadsSealed) {
  auto recorded = LoadRecordedRun(GoldenPath("golden_trace.cdtlog"));
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_TRUE(recorded.value().sealed);
  EXPECT_FALSE(recorded.value().torn_tail);
  EXPECT_EQ(recorded.value().rounds.size(), 200u);
  EXPECT_EQ(recorded.value().config.num_sellers, 12);
  EXPECT_EQ(recorded.value().config.seed, 0x601Du);
}

// The loader's record owns the log's bytes and hands out views into them,
// so it may move but never copy.
static_assert(!std::is_copy_constructible_v<RecordedLog>);
static_assert(!std::is_copy_constructible_v<RecordedRun>);
static_assert(std::is_move_constructible_v<RecordedRun>);

TEST_F(GoldenTraceTest, RecordedLogViewsTheRoundBytesAcrossAMove) {
  // The lean load keeps each round as a view into the one read of the
  // file: the views equal the canonical bytes of the decoded rounds, still
  // after the record has moved, and they replay bit for bit.
  auto decoded = LoadRecordedRun(GoldenPath("golden_trace.cdtlog"));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto loaded = LoadRecordedLog(GoldenPath("golden_trace.cdtlog"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RecordedLog log = std::move(loaded).value();
  EXPECT_TRUE(log.sealed);
  EXPECT_EQ(log.round_count, 200);
  EXPECT_EQ(log.valid_end, ReadGolden("golden_trace.cdtlog").size());
  ASSERT_EQ(log.round_payloads.size(), decoded.value().rounds.size());
  for (std::size_t i = 0; i < log.round_payloads.size(); ++i) {
    EXPECT_EQ(log.round_payloads[i],
              CanonicalRoundBytes(decoded.value().rounds[i]))
        << "round " << i + 1;
  }
  auto verified = VerifyReplay(log);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value().rounds_verified, 200);
}

TEST_F(GoldenTraceTest, GoldenTraceReplaysBitForBit) {
  // The gate itself: this build must reproduce the recorded campaign
  // byte-identically, faults and all.
  auto recorded = LoadRecordedRun(GoldenPath("golden_trace.cdtlog"));
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto verified = VerifyReplay(recorded.value());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value().rounds_verified, 200);
}

TEST_F(GoldenTraceTest, ReplayedLedgerMatchesTheTransferTrail) {
  // The ledger keeps balances only. Those of the replayed golden campaign
  // equal, bit for bit, the transfer trail rebuilt from the recorded
  // rounds, voided settlements included.
  auto recorded = LoadRecordedRun(GoldenPath("golden_trace.cdtlog"));
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto run = core::CmabHs::Create(recorded.value().config,
                                  recorded.value().policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(
      ReplayRecordedRounds(recorded.value(), {}, run.value().get()).ok());
  testsupport::TransferTrail trail(recorded.value().config.num_sellers);
  for (const market::RoundReport& report : recorded.value().rounds) {
    trail.AddRound(report);
  }
  EXPECT_EQ(trail.Mismatch(run.value()->engine().ledger()), "");
}

/// The corruption campaign: the golden trace arms no corrupt_rate, so this
/// one pins the rejected-batch path (corruption after the draw, validation,
/// RecordFault against RecordDelivery) beside defaults and partials, at a
/// coalition large enough for the collect stage's batching to matter.
core::MechanismConfig CorruptionConfig() {
  core::MechanismConfig config;
  config.num_sellers = 2000;
  config.num_selected = 45;
  config.num_pois = 10;
  config.num_rounds = 300;
  config.seed = 0xC0BB;
  config.faults.corrupt_rate = 0.05;
  config.faults.default_rate = 0.05;
  config.faults.partial_rate = 0.05;
  return config;
}

/// Runs the corruption campaign and returns its two digests: the CRC-32 of
/// every round's canonical bytes, in order, and of the closing engine
/// snapshot (reliability rows, estimator bank and the environment's RNG
/// words and sampler spares).
struct CorruptionDigests {
  std::uint32_t rounds = 0;
  std::uint32_t snapshot = 0;
  std::int64_t corrupt_faults = 0;
  std::int64_t breakers_opened = 0;

  std::string ToString() const {
    return "rounds " + std::to_string(rounds) + "\nsnapshot " +
           std::to_string(snapshot) + "\n";
  }
};

CorruptionDigests RunCorruptionCampaign() {
  CorruptionDigests digests;
  auto run = core::CmabHs::Create(CorruptionConfig());
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return digests;
  market::TradingEngine& engine = run.value()->mutable_engine();
  util::Status status = testsupport::RunEngineToEnd(
      &engine, [&](const market::RoundReport& report) {
        digests.rounds = Crc32(CanonicalRoundBytes(report), digests.rounds);
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::string snapshot;
  EncodeEngineSnapshot(engine.CaptureSnapshot(), &snapshot);
  digests.snapshot = Crc32(snapshot);
  digests.corrupt_faults =
      engine.fault_count(market::FaultKind::kCorruptedReport);
  digests.breakers_opened = engine.reliability().total_opened();
  return digests;
}

TEST(CorruptionCampaignTest, MatchesDigestsRecordedBeforeBatchedCollect) {
  const std::string path = GoldenPath("corrupt_campaign.digest");
  const CorruptionDigests digests = RunCorruptionCampaign();
  // The campaign must reach the path it pins: rejected batches, and
  // breakers opened by them.
  EXPECT_GT(digests.corrupt_faults, 100);
  EXPECT_GT(digests.breakers_opened, 0);
  if (std::getenv("CDT_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(AtomicWriteFile(path, digests.ToString()).ok());
  }
  auto recorded = ReadFileBytes(path);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_EQ(recorded.value(), digests.ToString());
}

TEST_F(GoldenTraceTest, FutureFormatVersionFailsClosed) {
  // A log stamped with a future format version must be rejected up front
  // — layouts may have changed in ways the CRC cannot catch.
  std::string trace = ReadGolden("golden_trace.cdtlog");
  ASSERT_GT(trace.size(), 9u);
  // Byte 8 (after the 8-byte magic) is the format-version varint; the
  // current version 1 encodes as the single byte 0x01.
  ASSERT_EQ(trace[8], '\x01');
  trace[8] = '\x02';
  const std::string skewed =
      (std::filesystem::temp_directory_path() /
       ("cdt_golden_skew_" + std::to_string(::getpid()) + ".cdtlog"))
          .string();
  {
    std::ofstream out(skewed, std::ios::binary | std::ios::trunc);
    out.write(trace.data(), static_cast<std::streamsize>(trace.size()));
  }
  auto strict = LoadRecordedRun(skewed);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), util::StatusCode::kVersionMismatch);
  EXPECT_NE(strict.status().message().find("version"), std::string::npos)
      << strict.status().ToString();
  // Torn-tail tolerance is crash recovery, not version forgiveness.
  auto tolerant = LoadRecordedRun(skewed, /*allow_torn_tail=*/true);
  EXPECT_FALSE(tolerant.ok());
  std::filesystem::remove(skewed);
}

TEST_F(GoldenTraceTest, TamperedGoldenTraceIsRejected) {
  // Flip one bit in the middle of the trace: the record CRC (or the
  // footer's rolling CRC) must catch it.
  std::string trace = ReadGolden("golden_trace.cdtlog");
  trace[trace.size() / 2] = static_cast<char>(trace[trace.size() / 2] ^ 0x10);
  const std::string tampered =
      (std::filesystem::temp_directory_path() /
       ("cdt_golden_tamper_" + std::to_string(::getpid()) + ".cdtlog"))
          .string();
  {
    std::ofstream out(tampered, std::ios::binary | std::ios::trunc);
    out.write(trace.data(), static_cast<std::streamsize>(trace.size()));
  }
  auto recorded = LoadRecordedRun(tampered);
  EXPECT_FALSE(recorded.ok());
  std::filesystem::remove(tampered);
}

}  // namespace
}  // namespace persist
}  // namespace cdt
