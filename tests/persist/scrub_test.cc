// The self-healing scrubber's contract, property-tested:
//
//   * repair is idempotent — scrubbing a repaired artifact changes
//     nothing (byte-for-byte), at every possible tear point;
//   * repaired logs actually load for crash recovery;
//   * irreparable damage is quarantined (moved aside, reason counted),
//     never silently accepted;
//   * version skew is reported distinctly and the file left intact;
//   * orphaned atomic-write temp files are swept;
//   * scrub, writer reattach and the recovery loader give one verdict on
//     every log, malformed or not.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/config.h"
#include "market/trading_engine.h"
#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/event_log.h"
#include "persist/replay.h"
#include "persist/scrub.h"
#include "stats/rng.h"

namespace cdt {
namespace persist {
namespace {

namespace fs = std::filesystem;

core::MechanismConfig SmallConfig() {
  core::MechanismConfig config;
  config.num_sellers = 8;
  config.num_selected = 2;
  config.num_pois = 3;
  config.num_rounds = 32;
  config.seed = 0xD15C;
  return config;
}

market::RoundReport SampleReport(std::int64_t round) {
  market::RoundReport report;
  report.round = round;
  report.selected = {1, 3};
  report.game_qualities = {0.5, 0.25};
  report.consumer_price = 2.5;
  report.collection_price = 1.25;
  report.tau = {0.5, 1.0};
  report.total_time = 1.5;
  return report;
}

// Hand-framed event-log bytes: CRC-valid records in orders and shapes the
// writer never produces.
std::string Frame(RecordType type, const std::string& payload) {
  std::string frame;
  PutByte(&frame, static_cast<std::uint8_t>(type));
  PutVarint64(&frame, payload.size());
  frame += payload;
  PutFixed32(&frame, Crc32(payload, Crc32(frame.substr(0, 1))));
  return frame;
}

std::string LogHeader() {
  std::string header(kLogMagic, 8);
  PutVarint64(&header, kFormatVersion);
  return header;
}

std::string ConfigFrame() {
  std::string payload;
  EncodeConfigPayload(SmallConfig(), {}, &payload);
  return Frame(RecordType::kConfig, payload);
}

std::string RoundFrame(std::int64_t round) {
  return Frame(RecordType::kRound, CanonicalRoundBytes(SampleReport(round)));
}

std::string ZigzagFrame(RecordType type, std::int64_t value) {
  std::string payload;
  PutZigzag64(&payload, value);
  return Frame(type, payload);
}

class ScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("cdt_scrub_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    log_path_ = dir_ + "/m.cdtlog";
    auto writer = EventLogWriter::Open(log_path_, SmallConfig(), {});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (std::int64_t round = 1; round <= 5; ++round) {
      ASSERT_TRUE(writer.value()->AppendRound(SampleReport(round)).ok());
    }
    ASSERT_TRUE(writer.value()->Finish().ok());
    auto bytes = ReadFileBytes(log_path_);
    ASSERT_TRUE(bytes.ok());
    pristine_ = std::move(bytes).value();
    auto run = LoadRecordedRun(log_path_);
    ASSERT_TRUE(run.ok());
    for (std::string_view payload : run.value().round_payloads) {
      pristine_payloads_.emplace_back(payload);
    }
  }

  void TearDown() override { fs::remove_all(dir_); }

  void WriteLog(const std::string& bytes) {
    std::ofstream out(log_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string LogBytes() {
    auto bytes = ReadFileBytes(log_path_);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? std::move(bytes).value() : std::string();
  }

  std::string dir_;
  std::string log_path_;
  std::string pristine_;
  std::vector<std::string> pristine_payloads_;
};

TEST_F(ScrubTest, CleanSealedLogIsClean) {
  auto outcome = ScrubEventLogFile(log_path_, {});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().health, ArtifactHealth::kClean);
  EXPECT_TRUE(outcome.value().sealed);
  EXPECT_EQ(LogBytes(), pristine_);
}

TEST_F(ScrubTest, RepairIsIdempotentAtEveryTearPoint) {
  // Chop the log at every byte. Wherever the scrubber repairs, repairing
  // again must change nothing and the repaired file must load for crash
  // recovery; wherever it quarantines, the original must be gone.
  std::size_t repaired = 0;
  std::size_t quarantined = 0;
  for (std::size_t cut = 0; cut < pristine_.size(); ++cut) {
    WriteLog(pristine_.substr(0, cut));
    auto first = ScrubEventLogFile(log_path_, {});
    ASSERT_TRUE(first.ok()) << "cut " << cut << ": "
                            << first.status().ToString();
    if (first.value().health == ArtifactHealth::kQuarantined) {
      ++quarantined;
      EXPECT_FALSE(fs::exists(log_path_)) << "cut " << cut;
      fs::remove(log_path_ + ".quarantined");
      continue;
    }
    ASSERT_TRUE(first.value().health == ArtifactHealth::kClean ||
                first.value().health == ArtifactHealth::kRepaired)
        << "cut " << cut;
    if (first.value().health == ArtifactHealth::kRepaired) ++repaired;
    const std::string once = LogBytes();
    auto second = ScrubEventLogFile(log_path_, {});
    ASSERT_TRUE(second.ok()) << "cut " << cut;
    EXPECT_EQ(second.value().health, ArtifactHealth::kClean)
        << "cut " << cut << ": repair did not converge";
    EXPECT_EQ(LogBytes(), once)
        << "cut " << cut << ": second scrub changed bytes";
    auto run = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
    ASSERT_TRUE(run.ok()) << "cut " << cut << ": repaired log does not "
                          << "load: " << run.status().ToString();
    ASSERT_FALSE(run.value().sealed) << "cut " << cut;
    // Recovery's reattach: the loaded log's tail.
    auto writer = EventLogWriter::OpenForAppend(log_path_, run.value().tail());
    EXPECT_TRUE(writer.ok()) << "cut " << cut << ": writer cannot reattach "
                             << "to a scrubbed log: "
                             << writer.status().ToString();
  }
  EXPECT_GT(repaired, 0u);
  // Cuts inside the header / config record are irreparable.
  EXPECT_GT(quarantined, 0u);
}

TEST_F(ScrubTest, ScrubReattachAndLoadGiveOneVerdict) {
  // A log the scrubber passes must be one recovery can load and, if
  // unsealed, reattach a writer to through the loaded tail (truncating a
  // torn final record); a sealed one loads as finished, which recovery
  // keeps read-only. A log the scrubber quarantines must fail the load,
  // so no writer ever reattaches to it.
  struct Case {
    const char* name;
    std::string bytes;
    const char* quarantine_reason;  // null: the log is usable
    bool sealed;
  };
  const std::string header = LogHeader();
  const std::string config = ConfigFrame();
  const std::string round4 = RoundFrame(4);
  const Case cases[] = {
      {"round record before the config record",
       header + RoundFrame(1) + config, "round_before_config", false},
      {"snapshot note for round 9 in a 2-round log",
       header + config + RoundFrame(1) + RoundFrame(2) +
           ZigzagFrame(RecordType::kSnapshotNote, 9),
       "misplaced_snapshot_note", false},
      {"round 7 right after round 1",
       header + config + RoundFrame(1) + RoundFrame(7), "round_out_of_order",
       false},
      {"sealed log plus one trailing byte", pristine_ + '\x02',
       "records_after_footer", false},
      {"two rebase(0) records",
       header + config + ZigzagFrame(RecordType::kRebase, 0) +
           ZigzagFrame(RecordType::kRebase, 0),
       "misplaced_rebase", false},
      {"pristine sealed log", pristine_, nullptr, true},
      {"crash state: unsealed, torn mid-round",
       header + config + RoundFrame(1) + RoundFrame(2) + RoundFrame(3) +
           round4.substr(0, round4.size() / 2),
       nullptr, false},
  };
  ScrubOptions report_only;
  report_only.repair = false;
  report_only.quarantine = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    WriteLog(c.bytes);
    auto scrub = ScrubEventLogFile(log_path_, report_only);
    ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
    auto load = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
    if (c.quarantine_reason != nullptr) {
      EXPECT_EQ(scrub.value().health, ArtifactHealth::kQuarantined);
      EXPECT_EQ(scrub.value().detail, c.quarantine_reason);
      EXPECT_FALSE(load.ok());
      // The load and a fresh scan refuse the log for the same reason.
      auto bytes = ReadFileBytes(log_path_);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(ScanEventLog(bytes.value()).status.code(),
                load.status().code())
          << load.status().ToString();
      continue;
    }
    EXPECT_TRUE(scrub.value().health == ArtifactHealth::kClean ||
                scrub.value().health == ArtifactHealth::kRepaired)
        << ArtifactHealthName(scrub.value().health) << ": "
        << scrub.value().detail;
    EXPECT_EQ(scrub.value().sealed, c.sealed);
    ASSERT_TRUE(load.ok()) << load.status().ToString();
    EXPECT_EQ(load.value().sealed, c.sealed);
    if (c.sealed) continue;
    // Last: reattaching truncates a torn tail.
    auto reattach =
        EventLogWriter::OpenForAppend(log_path_, load.value().tail());
    ASSERT_TRUE(reattach.ok()) << reattach.status().ToString();
    EXPECT_EQ(LogBytes().size(), load.value().valid_end);
  }
}

TEST_F(ScrubTest, BitFlipsQuarantineWithCountedReasons) {
  stats::Xoshiro256 rng(0x5C2B);
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < pristine_.size(); ++i) {
    std::string corrupt = pristine_;
    corrupt[i] = static_cast<char>(
        static_cast<std::uint8_t>(corrupt[i]) ^ (1u << (rng.Next() % 8)));
    WriteLog(corrupt);
    auto outcome = ScrubEventLogFile(log_path_, {});
    ASSERT_TRUE(outcome.ok()) << "byte " << i;
    ASSERT_NE(outcome.value().health, ArtifactHealth::kClean)
        << "flip at byte " << i << " scrubbed clean";
    if (outcome.value().health == ArtifactHealth::kQuarantined) {
      ++quarantined;
      EXPECT_FALSE(outcome.value().detail.empty()) << "byte " << i;
      fs::remove(log_path_ + ".quarantined");
    } else if (outcome.value().health == ArtifactHealth::kVersionSkew) {
      // The version byte: reported distinctly, file left intact.
      EXPECT_TRUE(fs::exists(log_path_)) << "byte " << i;
    } else {
      // A flip in a length varint can mimic a tear and get "repaired"
      // away. That is fine exactly as long as whatever loads afterwards
      // is a byte-true prefix of the pristine rounds — altered round
      // bytes must never survive.
      auto run = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
      if (run.ok()) {
        const auto& payloads = run.value().round_payloads;
        ASSERT_LE(payloads.size(), pristine_payloads_.size())
            << "byte " << i;
        for (std::size_t r = 0; r < payloads.size(); ++r) {
          EXPECT_EQ(payloads[r], pristine_payloads_[r])
              << "byte " << i << " round " << r + 1;
        }
      }
    }
  }
  EXPECT_GT(quarantined, 0u);
}

TEST_F(ScrubTest, SnapshotCorruptionQuarantinesSkewReportsIntact) {
  const std::string snap_path = dir_ + "/m.cdtsnap";
  market::EngineSnapshot snapshot;
  snapshot.next_round = 3;
  snapshot.pricing_arms = {{1, 0.5}};
  snapshot.pricing_total_observations = 1;
  snapshot.ledger_balances = {0.0, 0.0, 0.0};
  snapshot.reliability.resize(1);
  snapshot.environment.rng_state = {1, 2, 3, 4};
  snapshot.environment.has_spare = {0};
  snapshot.environment.spare = {0.0};
  ASSERT_TRUE(WriteSnapshotFile(snap_path, 77, snapshot).ok());

  auto clean = ScrubSnapshotFile(snap_path, {});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().health, ArtifactHealth::kClean);

  auto bytes = ReadFileBytes(snap_path);
  ASSERT_TRUE(bytes.ok());
  std::string skewed = bytes.value();
  skewed[8] = '\x7E';  // the format-version varint right after the magic
  {
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(skewed.data(), static_cast<std::streamsize>(skewed.size()));
  }
  auto skew = ScrubSnapshotFile(snap_path, {});
  ASSERT_TRUE(skew.ok());
  EXPECT_EQ(skew.value().health, ArtifactHealth::kVersionSkew);
  EXPECT_TRUE(fs::exists(snap_path));

  std::string corrupt = bytes.value();
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
  {
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  auto bad = ScrubSnapshotFile(snap_path, {});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().health, ArtifactHealth::kQuarantined);
  EXPECT_EQ(bad.value().detail, "snapshot_corrupt");
  EXPECT_FALSE(fs::exists(snap_path));
  EXPECT_TRUE(fs::exists(snap_path + ".quarantined"));
}

TEST_F(ScrubTest, ReportOnlyModeTouchesNothing) {
  std::string torn = pristine_.substr(0, pristine_.size() - 3);
  WriteLog(torn);
  ScrubOptions options;
  options.repair = false;
  options.quarantine = false;
  auto outcome = ScrubEventLogFile(log_path_, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().health, ArtifactHealth::kRepaired);
  EXPECT_EQ(LogBytes(), torn);  // diagnosis only, no truncation
}

TEST_F(ScrubTest, DirectoryScrubTalliesAndSweepsOrphans) {
  // A second, torn log; a corrupt snapshot; two orphan temp files.
  const std::string torn_path = dir_ + "/n.cdtlog";
  fs::copy_file(log_path_, torn_path);
  fs::resize_file(torn_path, fs::file_size(torn_path) - 2);
  const std::string snap_path = dir_ + "/m.cdtsnap";
  {
    // Valid magic + version 1, then noise: unmistakably bit rot, not
    // version skew.
    std::ofstream out(snap_path, std::ios::binary);
    out << "CDTSNAPS" << '\x01' << "garbage";
  }
  {
    std::ofstream out(dir_ + "/m.cdtsnap.tmp");
    out << "partial";
  }
  {
    std::ofstream out(dir_ + "/n.cdtlog.tmp");
    out << "partial";
  }

  auto report = ScrubWalDirectory(dir_, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().clean, 1);
  EXPECT_EQ(report.value().repaired, 1);
  EXPECT_EQ(report.value().quarantined, 1);
  EXPECT_EQ(report.value().orphan_temps_found, 2);
  EXPECT_EQ(report.value().orphan_temps_removed, 2);
  EXPECT_EQ(report.value().quarantine_reasons.at("snapshot_corrupt"), 1);
  EXPECT_FALSE(fs::exists(dir_ + "/m.cdtsnap.tmp"));
  EXPECT_FALSE(fs::exists(dir_ + "/n.cdtlog.tmp"));
  EXPECT_TRUE(fs::exists(snap_path + ".quarantined"));
  // The repaired log loads; a second directory scrub is a no-op.
  EXPECT_TRUE(LoadRecordedRun(torn_path, /*allow_torn_tail=*/true).ok());
  auto again = ScrubWalDirectory(dir_, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().clean, 2);
  EXPECT_EQ(again.value().repaired, 0);
  EXPECT_EQ(again.value().quarantined, 0);
}

TEST_F(ScrubTest, ReportOnlyDirectoryScrubLeavesOrphanTempsInPlace) {
  // --repair=false --quarantine=false is documented as a pure read-only
  // check: orphan temps are counted but must survive.
  const std::string temp_path = dir_ + "/m.cdtsnap.tmp";
  {
    std::ofstream out(temp_path);
    out << "partial";
  }
  ScrubOptions options;
  options.repair = false;
  options.quarantine = false;
  auto report = ScrubWalDirectory(dir_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().orphan_temps_found, 1);
  EXPECT_EQ(report.value().orphan_temps_removed, 0);
  EXPECT_TRUE(fs::exists(temp_path));

  // A repairing pass then sweeps exactly what the report-only pass saw.
  auto repairing = ScrubWalDirectory(dir_, {});
  ASSERT_TRUE(repairing.ok());
  EXPECT_EQ(repairing.value().orphan_temps_found, 1);
  EXPECT_EQ(repairing.value().orphan_temps_removed, 1);
  EXPECT_FALSE(fs::exists(temp_path));
  // The sweep removes only temps: the real artifacts stay.
  EXPECT_TRUE(fs::exists(log_path_));
  EXPECT_EQ(LogBytes(), pristine_);
}

}  // namespace
}  // namespace persist
}  // namespace cdt
