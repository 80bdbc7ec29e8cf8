// Crash-recovery suite: kill a recorded campaign mid-run at randomized
// round boundaries (no Finish — the log is torn, the snapshot covers an
// earlier checkpoint), restore via snapshot + tail-replay, finish the
// campaign live, and byte-compare the canonical encoding of every round
// (recorded prefix, then live tail) against an uninterrupted run of the
// same config. Faults and invariant checks stay armed throughout, so
// recovery is proven over the degraded path too.

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bandit/arm.h"
#include "core/cmab_hs.h"
#include "core/config.h"
#include "persist/atomic_io.h"
#include "persist/event_log.h"
#include "persist/recorder.h"
#include "persist/replay.h"
#include "stats/rng.h"
#include "support/reference_snapshot_codec.h"

namespace cdt {
namespace persist {
namespace {

constexpr std::int64_t kRounds = 60;
constexpr std::int64_t kSnapshotEvery = 10;

core::MechanismConfig CampaignConfig() {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = kRounds;
  config.seed = 0x5EED5;
  // Faults armed: recovery must reproduce degraded rounds bit-for-bit.
  config.faults.default_rate = 0.08;
  config.faults.partial_rate = 0.05;
  config.faults.settlement_failure_rate = 0.05;
  return config;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("cdt_recovery_" + std::to_string(::getpid())))
            .string();
    log_path_ = stem + ".cdtlog";
    snapshot_path_ = stem + ".cdtsnap";
  }

  void TearDown() override {
    for (const std::string& path : {log_path_, snapshot_path_}) {
      std::filesystem::remove(path);
    }
  }

  /// Runs the campaign uninterrupted, keeping every round's canonical
  /// bytes as the baseline.
  void RunUninterrupted() {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    util::Status status =
        run.value()->RunAll([&](const market::RoundReport& report) {
          baseline_.push_back(CanonicalRoundBytes(report));
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(baseline_.size(), static_cast<std::size_t>(kRounds));
  }

  /// Records the campaign but "crashes" after `crash_round` rounds: the
  /// run object is destroyed without RunRecorder::Finish, leaving an
  /// unsealed log and whatever snapshot last checkpointed.
  void RunAndCrash(std::int64_t crash_round) {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    RunRecorder::Options options;
    options.log_path = log_path_;
    options.snapshot_path = snapshot_path_;
    options.snapshot_every = kSnapshotEvery;
    auto recorder = RunRecorder::Create(options, CampaignConfig(), {});
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    run.value()->mutable_engine().AddObserver(std::move(recorder).value());
    for (std::int64_t round = 0; round < crash_round; ++round) {
      auto report = run.value()->RunRound();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
    // Scope exit destroys the run (and the recorder observer it owns)
    // without sealing the log — the crash.
  }

  /// Recovers from the torn log + snapshot, finishes the campaign live,
  /// and collects the spliced rounds (recorded prefix, then live tail).
  void RecoverAndFinish(std::int64_t crash_round) {
    auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
    EXPECT_FALSE(recorded.value().sealed);
    ASSERT_EQ(recorded.value().rounds.size(),
              static_cast<std::size_t>(crash_round));
    ASSERT_FALSE(recorded.value().snapshot_rounds.empty());
    EXPECT_EQ(recorded.value().snapshot_rounds.back(),
              (crash_round / kSnapshotEvery) * kSnapshotEvery);

    auto snapshot = ReadSnapshotFile(snapshot_path_);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

    auto resumed = ResumeFromSnapshot(recorded.value(), snapshot.value());
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed.value().snapshot_round,
              recorded.value().snapshot_rounds.back());
    EXPECT_EQ(resumed.value().resumed_round, crash_round);

    recovered_.clear();
    for (const market::RoundReport& report : recorded.value().rounds) {
      recovered_.push_back(CanonicalRoundBytes(report));
    }
    util::Status status = resumed.value().run->RunAll(
        [&](const market::RoundReport& report) {
          recovered_.push_back(CanonicalRoundBytes(report));
        });
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  void ExpectRoundsIdentical() {
    // Every field of every round, fault metadata included, at full
    // precision: recovery reproduced the run exactly.
    ASSERT_EQ(recovered_.size(), baseline_.size());
    for (std::size_t i = 0; i < baseline_.size(); ++i) {
      EXPECT_EQ(recovered_[i], baseline_[i]) << "round " << i + 1;
    }
  }

  std::string log_path_;
  std::string snapshot_path_;
  std::vector<std::string> baseline_;
  std::vector<std::string> recovered_;
};

TEST_F(RecoveryTest, RandomizedCrashRoundsRecoverBitIdentically) {
  RunUninterrupted();
  // Crash at randomized boundaries; every recovery must splice to rounds
  // byte-identical with the uninterrupted run.
  stats::Xoshiro256 rng(0xC4A5F);
  std::vector<std::int64_t> crash_rounds;
  for (int i = 0; i < 4; ++i) {
    // Uniform in [kSnapshotEvery, kRounds - 1].
    const std::uint64_t offset = rng.NextBounded(
        static_cast<std::uint64_t>(kRounds - kSnapshotEvery));
    crash_rounds.push_back(kSnapshotEvery + static_cast<std::int64_t>(offset));
  }
  // Always include a checkpoint-aligned crash (empty tail-replay).
  crash_rounds.push_back(3 * kSnapshotEvery);
  for (std::int64_t crash_round : crash_rounds) {
    SCOPED_TRACE("crash after round " + std::to_string(crash_round));
    RunAndCrash(crash_round);
    RecoverAndFinish(crash_round);
    ExpectRoundsIdentical();
    std::filesystem::remove(log_path_);
    std::filesystem::remove(snapshot_path_);
  }
}

TEST_F(RecoveryTest, TwoSectionCucbSnapshotResumesBitIdentically) {
  // Under CUCB, writers before the arms were stored once followed the
  // arms with a flag byte 1 and a copy of them. Such a file still decodes,
  // restores, tail-replays and finishes the campaign byte-identically.
  const std::int64_t crash_round = 37;
  RunUninterrupted();
  RunAndCrash(crash_round);
  auto snapshot = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const market::EngineSnapshot& one = snapshot.value().snapshot;
  std::string two_sections;
  testsupport::LegacySnapshotLayout layout;
  layout.second_arms = &one.pricing_arms;
  layout.second_total = one.pricing_total_observations;
  testsupport::ReferenceEncodeLegacySnapshot(one, layout, &two_sections);
  ASSERT_TRUE(AtomicWriteFile(snapshot_path_,
                              testsupport::ReferenceSnapshotFileBytes(
                                  snapshot.value().config_crc, two_sections))
                  .ok());
  RecoverAndFinish(crash_round);
  ExpectRoundsIdentical();
}

TEST_F(RecoveryTest, MovedArmMeanIsCaughtByTheTailReplay) {
  // With the arms stored once, no second copy can disagree with an edited
  // mean. A CRC-valid file whose selected seller's mean moved within
  // [0, 1] restores, and the byte-verified tail replay names the first
  // round it changes.
  const std::int64_t crash_round = 37;
  RunAndCrash(crash_round);
  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto snapshot = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  SnapshotFile edited = snapshot.value();
  const std::int64_t first_tail = edited.snapshot.next_round;
  ASSERT_LE(first_tail, crash_round);
  const int seller = recorded.value()
                         .rounds[static_cast<std::size_t>(first_tail - 1)]
                         .selected.front();
  bandit::ArmState& arm =
      edited.snapshot.pricing_arms[static_cast<std::size_t>(seller)];
  arm.mean = arm.mean > 0.5 ? arm.mean - 0.25 : arm.mean + 0.25;
  ASSERT_TRUE(
      WriteSnapshotFile(snapshot_path_, edited.config_crc, edited.snapshot)
          .ok());
  auto reread = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();

  auto run = core::CmabHs::Create(recorded.value().config,
                                  recorded.value().policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  util::Status restored =
      run.value()->mutable_engine().RestoreSnapshot(reread.value().snapshot);
  EXPECT_TRUE(restored.ok()) << restored.ToString();

  auto resumed = ResumeFromSnapshot(recorded.value(), reread.value());
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kInternal);
  EXPECT_NE(resumed.status().message().find(
                "replay diverged at round " + std::to_string(first_tail) +
                " "),
            std::string::npos)
      << resumed.status().ToString();
  // The differing fields come from decoding the one recorded payload that
  // diverged: the load keeps payload bytes only.
  EXPECT_NE(resumed.status().message().find(
                "(differing fields: selected, game_qualities, "
                "consumer_price, collection_price, tau, consumer_profit, "
                "platform_profit, seller_profits, observed_quality_revenue)"),
            std::string::npos)
      << resumed.status().ToString();
}

TEST_F(RecoveryTest, NonFiniteLedgerFieldIsRefusedWithoutMutation) {
  // A CRC-valid snapshot may still carry NaN or inf in its ledger. Were it
  // restored, the armed checker would copy it into its baseline, where
  // every `residual > bound` test is false, and the audits would pass
  // while NetPosition() reads NaN. Restore refuses each such field in
  // turn, and a negative consumer outflow, before the engine changes: the
  // same engine then takes the clean snapshot and finishes the campaign
  // byte-identically.
  const std::int64_t crash_round = 37;
  RunUninterrupted();
  RunAndCrash(crash_round);
  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto snapshot = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const market::EngineSnapshot& clean = snapshot.value().snapshot;
  const std::size_t slots = clean.ledger_balances.size();
  ASSERT_GT(slots, 2u);

  auto expect_refused = [&](const char* what, auto edit) {
    SCOPED_TRACE(what);
    market::EngineSnapshot edited = clean;
    edit(edited);
    auto run = core::CmabHs::Create(recorded.value().config,
                                    recorded.value().policy);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    market::TradingEngine& engine = run.value()->mutable_engine();
    const util::Status refused = engine.RestoreSnapshot(edited);
    EXPECT_EQ(refused.code(), util::StatusCode::kOutOfRange)
        << refused.ToString();
    EXPECT_EQ(engine.current_round(), 0);
    EXPECT_EQ(engine.ledger().balances(), std::vector<double>(slots, 0.0));

    ASSERT_TRUE(engine.RestoreSnapshot(clean).ok());
    ASSERT_TRUE(
        ReplayRecordedRounds(recorded.value(), {}, run.value().get()).ok());
    recovered_.clear();
    for (const market::RoundReport& report : recorded.value().rounds) {
      recovered_.push_back(CanonicalRoundBytes(report));
    }
    ASSERT_TRUE(run.value()
                    ->RunAll([&](const market::RoundReport& report) {
                      recovered_.push_back(CanonicalRoundBytes(report));
                    })
                    .ok());
    ExpectRoundsIdentical();
  };
  using Snapshot = market::EngineSnapshot;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_refused("consumer balance -inf",
                 [&](Snapshot& s) { s.ledger_balances[0] = -inf; });
  expect_refused("platform balance NaN",
                 [&](Snapshot& s) { s.ledger_balances[1] = nan; });
  expect_refused("seller balance NaN",
                 [&](Snapshot& s) { s.ledger_balances.back() = nan; });
  expect_refused("seller balance +inf",
                 [&](Snapshot& s) { s.ledger_balances.back() = inf; });
  expect_refused("consumer outflow NaN",
                 [&](Snapshot& s) { s.ledger_consumer_outflow = nan; });
  expect_refused("consumer outflow +inf",
                 [&](Snapshot& s) { s.ledger_consumer_outflow = inf; });
  expect_refused("consumer outflow negative",
                 [&](Snapshot& s) { s.ledger_consumer_outflow = -1.0; });
  expect_refused("seller inflow NaN",
                 [&](Snapshot& s) { s.ledger_seller_inflow = nan; });
  expect_refused("seller inflow -inf",
                 [&](Snapshot& s) { s.ledger_seller_inflow = -inf; });
}

TEST_F(RecoveryTest, CrashBeforeFirstSnapshotReplaysFromRoundOne) {
  // A crash before the first checkpoint leaves no snapshot; the whole
  // prefix replays from round 1 via VerifyReplay semantics and the run
  // still finishes byte-identically.
  const std::int64_t crash_round = kSnapshotEvery - 3;
  RunUninterrupted();
  RunAndCrash(crash_round);
  EXPECT_FALSE(std::filesystem::exists(snapshot_path_));

  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_EQ(recorded.value().rounds.size(),
            static_cast<std::size_t>(crash_round));

  // Rebuild from scratch and replay the recorded prefix by re-running it.
  auto run = core::CmabHs::Create(recorded.value().config,
                                  recorded.value().policy);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (std::int64_t round = 0; round < crash_round; ++round) {
    auto report = run.value()->RunRound();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // The re-executed prefix must match the recording bit-for-bit.
    recovered_.push_back(CanonicalRoundBytes(report.value()));
    ASSERT_EQ(recovered_.back(),
              recorded.value().round_payloads[static_cast<std::size_t>(
                  round)]);
  }
  util::Status status =
      run.value()->RunAll([&](const market::RoundReport& report) {
        recovered_.push_back(CanonicalRoundBytes(report));
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectRoundsIdentical();
}

TEST_F(RecoveryTest, VerifyReplayPassesOnTornPrefix) {
  // The upgrade gate's core check also holds for crashed recordings: the
  // surviving prefix must re-execute bit-for-bit.
  RunAndCrash(37);
  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto verified = VerifyReplay(recorded.value());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value().rounds_verified, 37);
}

TEST_F(RecoveryTest, MismatchedSnapshotConfigIsRejected) {
  // A snapshot from a different campaign (different config CRC) must be
  // refused at resume time, not silently produce a diverged run.
  RunAndCrash(25);
  auto recorded = LoadRecordedRun(log_path_, /*allow_torn_tail=*/true);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  auto snapshot = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  SnapshotFile tampered = snapshot.value();
  tampered.config_crc ^= 0x1;
  auto resumed = ResumeFromSnapshot(recorded.value(), tampered);
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, SealedLogLoadsStrictAndResumes) {
  // A cleanly finished recording also resumes (restore-from-archive, not
  // just crash recovery): strict load, then snapshot + tail-replay to the
  // end of the campaign.
  {
    auto run = core::CmabHs::Create(CampaignConfig());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    RunRecorder::Options options;
    options.log_path = log_path_;
    options.snapshot_path = snapshot_path_;
    options.snapshot_every = kSnapshotEvery;
    auto recorder = RunRecorder::Create(options, CampaignConfig(), {});
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    RunRecorder* rec = recorder.value().get();
    run.value()->mutable_engine().AddObserver(std::move(recorder).value());
    ASSERT_TRUE(run.value()->RunAll().ok());
    ASSERT_TRUE(rec->Finish().ok());
  }
  auto recorded = LoadRecordedRun(log_path_);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_TRUE(recorded.value().sealed);
  EXPECT_EQ(recorded.value().rounds.size(),
            static_cast<std::size_t>(kRounds));
  auto snapshot = ReadSnapshotFile(snapshot_path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto resumed = ResumeFromSnapshot(recorded.value(), snapshot.value());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().resumed_round, kRounds);
}

}  // namespace
}  // namespace persist
}  // namespace cdt
