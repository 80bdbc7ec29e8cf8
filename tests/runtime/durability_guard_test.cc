// The durability circuit breaker under deterministic disk faults:
// storage failures degrade instead of crashing, trading continues
// byte-identically to a fault-free run, re-arm probes restore full
// durability through a rebased log, a permanent fault ends in an
// explicit quarantine, and snapshot-compaction bounds log growth while
// preserving exact recovery — also across a crash.

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "market/trading_engine.h"
#include "persist/atomic_io.h"
#include "persist/event_log.h"
#include "persist/io_hooks.h"
#include "persist/replay.h"
#include "persist/serialize.h"
#include "runtime/durability.h"
#include "runtime/marketplace.h"

namespace cdt {
namespace runtime {
namespace {

namespace fs = std::filesystem;
using persist::IoFault;
using persist::IoHooks;
using persist::IoOp;

MarketplaceSpec SmallSpec(std::int64_t rounds) {
  MarketplaceSpec spec;
  spec.config.num_sellers = 8;
  spec.config.num_selected = 2;
  spec.config.num_pois = 3;
  spec.config.num_rounds = rounds;
  spec.config.seed = 0xD17A;
  return spec;
}

Event Demand(const std::string& id, std::int64_t rounds) {
  Event event;
  event.type = EventType::kConsumerDemand;
  event.marketplace = id;
  event.rounds = rounds;
  return event;
}

Event Flip(const std::string& id, EventType type, int seller) {
  Event event;
  event.type = type;
  event.marketplace = id;
  event.seller = seller;
  return event;
}

std::string EngineBytes(const HostedMarketplace& marketplace) {
  std::string bytes;
  persist::EncodeEngineSnapshot(
      marketplace.run().engine().CaptureSnapshot(), &bytes);
  return bytes;
}

class DurabilityGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IoHooks::Instance().Reset();
    dir_ = (fs::temp_directory_path() /
            ("cdt_durability_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    IoHooks::Instance().Reset();
    fs::remove_all(dir_);
  }

  std::int64_t ApplyDemand(HostedMarketplace& marketplace,
                           std::int64_t rounds) {
    std::int64_t remaining = 0;
    Status status =
        marketplace.ApplyEvent(Demand(marketplace.id(), rounds),
                               /*max_rounds=*/0, &remaining);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return remaining;
  }

  using Status = util::Status;
  std::string dir_;
};

TEST_F(DurabilityGuardTest, EnospcWindowDegradesRearmsAndStaysByteTrue) {
  // Reference: the same spec with no faults.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  options.durability.degrade_after_failures = 3;
  options.durability.rearm_initial_rounds = 4;
  options.durability.rearm_max_rounds = 64;
  auto reference =
      HostedMarketplace::Create("ref", SmallSpec(60), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ApplyDemand(*reference.value(), 60);
  const std::string want = EngineBytes(*reference.value());
  ASSERT_TRUE(reference.value()->FinishWal().ok());

  // Faulted: a 2-op ENOSPC window on writes. The first failed append
  // makes the log writer's error sticky, so the next two rounds fail
  // without consuming window ops and the breaker opens after 3
  // consecutive failed rounds; the window's second op then fails the
  // first re-arm probe and the doubled backoff clears it.
  IoHooks::Instance().EnableCounting();
  auto faulted = HostedMarketplace::Create("flt", SmallSpec(60), options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  HostedMarketplace& marketplace = *faulted.value();
  ApplyDemand(marketplace, 10);
  IoFault fault;
  fault.op = IoOp::kWrite;
  fault.from_index = IoHooks::Instance().ops_seen(IoOp::kWrite);
  fault.count = 2;
  IoHooks::Instance().Arm(fault);
  ApplyDemand(marketplace, 50);

  ASSERT_NE(marketplace.guard(), nullptr);
  const DurabilityGuard::Stats stats = marketplace.guard()->stats();
  EXPECT_EQ(stats.health, DurabilityGuard::Health::kDurable);
  EXPECT_EQ(stats.degrades, 1u);
  EXPECT_EQ(stats.rearms, 1u);
  EXPECT_GE(stats.wal_failures, 4u);
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kDone);

  // Faults never leaked into trading: the engines match byte for byte.
  EXPECT_EQ(EngineBytes(marketplace), want);
  ASSERT_TRUE(marketplace.FinishWal().ok());

  // The rebased, sealed WAL recovers the exact same engine.
  IoHooks::Instance().ClearFaults();
  auto recovered = HostedMarketplace::Recover("flt", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->state(), HostedMarketplace::State::kClosed);
  EXPECT_EQ(EngineBytes(*recovered.value()), want);

  // The rebased log starts past the degraded window: the lost rounds are
  // explicitly absent, not silently wrong.
  auto run = persist::LoadRecordedRun(
      MarketplaceLogPath(dir_, "flt"));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().base_round, 10);
  EXPECT_TRUE(run.value().sealed);
}

TEST_F(DurabilityGuardTest, JournalFailureDegradesImmediately) {
  // An unjournaled seller flip would silently poison recovery, so one
  // failed journal append must open the breaker at once — no threshold.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  auto created = HostedMarketplace::Create("jrn", SmallSpec(40), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HostedMarketplace& marketplace = *created.value();
  IoHooks::Instance().EnableCounting();
  ApplyDemand(marketplace, 8);

  IoFault fault;
  fault.op = IoOp::kWrite;
  fault.from_index = IoHooks::Instance().ops_seen(IoOp::kWrite);
  fault.count = 1;
  IoHooks::Instance().Arm(fault);
  Event flip;
  flip.type = EventType::kSellerLeave;
  flip.marketplace = "jrn";
  flip.seller = 3;
  std::int64_t remaining = 0;
  ASSERT_TRUE(marketplace.ApplyEvent(flip, 0, &remaining).ok());

  ASSERT_NE(marketplace.guard(), nullptr);
  EXPECT_EQ(marketplace.guard()->health(),
            DurabilityGuard::Health::kDegraded);
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kActive);

  // The flip took effect despite the failed journal append, and the
  // re-arm snapshot carries it: recovery reproduces the live engine.
  ApplyDemand(marketplace, 32);
  EXPECT_EQ(marketplace.guard()->health(),
            DurabilityGuard::Health::kDurable);
  const std::string want = EngineBytes(marketplace);
  ASSERT_TRUE(marketplace.FinishWal().ok());
  auto recovered = HostedMarketplace::Recover("jrn", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(EngineBytes(*recovered.value()), want);
}

TEST_F(DurabilityGuardTest, PermanentFaultExhaustsRearmsAndQuarantines) {
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  options.durability.degrade_after_failures = 2;
  options.durability.rearm_initial_rounds = 2;
  options.durability.max_rearm_attempts = 2;
  auto created = HostedMarketplace::Create("prm", SmallSpec(40), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HostedMarketplace& marketplace = *created.value();
  const std::uint64_t quarantines_before =
      GlobalDurabilityTotals().quarantines;

  IoHooks::Instance().EnableCounting();
  ApplyDemand(marketplace, 5);
  IoFault fault;
  fault.op = IoOp::kWrite;
  fault.from_index = IoHooks::Instance().ops_seen(IoOp::kWrite);
  fault.count = 0;  // permanent: the disk never comes back
  IoHooks::Instance().Arm(fault);
  ApplyDemand(marketplace, 30);

  // Trading continued to the end of the dispatch, then the exhausted
  // breaker quarantined the marketplace — explicitly, with a counter.
  ASSERT_NE(marketplace.guard(), nullptr);
  EXPECT_EQ(marketplace.guard()->health(),
            DurabilityGuard::Health::kFailed);
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kQuarantined);
  EXPECT_EQ(marketplace.rounds_settled(), 35);
  EXPECT_EQ(GlobalDurabilityTotals().quarantines, quarantines_before + 1);
  EXPECT_FALSE(marketplace.guard()->stats().last_error.ok());
}

TEST_F(DurabilityGuardTest, CompactionRebaseFailureDegradesInsteadOfCrashing) {
  // Rebase drops both writers before anything that can fail. If the
  // rebase snapshot write fails mid-compaction, the guard must open the
  // breaker immediately — one failure below the degrade threshold that
  // left the guard kDurable would dereference the null writer next
  // round. degrade_after_failures stays at the default 3 on purpose:
  // that is exactly the configuration the immediate degrade protects.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  options.durability.degrade_after_failures = 3;
  options.durability.rearm_initial_rounds = 4;
  options.durability.compact_after_rounds = 8;
  auto reference = HostedMarketplace::Create("ref", SmallSpec(48), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ApplyDemand(*reference.value(), 48);
  const std::string want = EngineBytes(*reference.value());
  ASSERT_TRUE(reference.value()->FinishWal().ok());

  IoHooks::Instance().EnableCounting();
  auto faulted = HostedMarketplace::Create("flt", SmallSpec(48), options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  HostedMarketplace& marketplace = *faulted.value();
  ApplyDemand(marketplace, 7);
  // Round 8 (checkpoint + first compaction) issues writes in a fixed
  // order: round append, checkpoint snapshot, snapshot note, then the
  // rebase snapshot inside Compact. Fail exactly the rebase snapshot,
  // after Rebase has already dismantled the writers.
  IoFault fault;
  fault.op = IoOp::kWrite;
  fault.from_index = IoHooks::Instance().ops_seen(IoOp::kWrite) + 3;
  fault.count = 1;
  IoHooks::Instance().Arm(fault);
  ApplyDemand(marketplace, 41);

  ASSERT_NE(marketplace.guard(), nullptr);
  const DurabilityGuard::Stats stats = marketplace.guard()->stats();
  EXPECT_EQ(stats.health, DurabilityGuard::Health::kDurable);
  EXPECT_EQ(stats.degrades, 1u);
  EXPECT_EQ(stats.rearms, 1u);
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kDone);

  // The fault never leaked into trading, and the re-armed WAL recovers
  // the exact engine.
  EXPECT_EQ(EngineBytes(marketplace), want);
  ASSERT_TRUE(marketplace.FinishWal().ok());
  IoHooks::Instance().ClearFaults();
  auto recovered = HostedMarketplace::Recover("flt", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(EngineBytes(*recovered.value()), want);
}

TEST_F(DurabilityGuardTest, RetentionRenameFailureDegradesNotQuarantines) {
  // With retain_compacted, Compact seals the outgoing log before
  // renaming it aside. A failed rename leaves a writer that can never
  // append again: the guard must degrade (and later re-arm) instead of
  // staying kDurable and tripping a FailedPrecondition — a programming
  // error, which would quarantine the marketplace — on the next round.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  options.durability.degrade_after_failures = 3;
  options.durability.rearm_initial_rounds = 4;
  options.durability.compact_after_rounds = 8;
  options.durability.retain_compacted = true;
  auto reference = HostedMarketplace::Create("ref", SmallSpec(48), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ApplyDemand(*reference.value(), 48);
  const std::string want = EngineBytes(*reference.value());
  ASSERT_TRUE(reference.value()->FinishWal().ok());

  IoHooks::Instance().EnableCounting();
  auto faulted = HostedMarketplace::Create("flt", SmallSpec(48), options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  HostedMarketplace& marketplace = *faulted.value();
  ApplyDemand(marketplace, 7);
  // Round 8 renames in a fixed order: checkpoint snapshot, then the
  // retention rename (after Finish() sealed the writer), then the
  // rebase snapshot. Fail exactly the retention rename.
  IoFault fault;
  fault.op = IoOp::kRename;
  fault.from_index = IoHooks::Instance().ops_seen(IoOp::kRename) + 1;
  fault.count = 1;
  IoHooks::Instance().Arm(fault);
  ApplyDemand(marketplace, 41);

  ASSERT_NE(marketplace.guard(), nullptr);
  const DurabilityGuard::Stats stats = marketplace.guard()->stats();
  EXPECT_EQ(stats.health, DurabilityGuard::Health::kDurable);
  EXPECT_EQ(stats.degrades, 1u);
  EXPECT_EQ(stats.rearms, 1u);
  // One transient rename failure must never bypass the breaker.
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kDone);

  EXPECT_EQ(EngineBytes(marketplace), want);
  ASSERT_TRUE(marketplace.FinishWal().ok());
  IoHooks::Instance().ClearFaults();
  auto recovered = HostedMarketplace::Recover("flt", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(EngineBytes(*recovered.value()), want);
}

TEST_F(DurabilityGuardTest, CompactionBoundsLogGrowthAndRecoversExactly) {
  HostedMarketplace::Options plain;
  plain.wal_dir = dir_;
  plain.snapshot_every = 4;
  auto reference =
      HostedMarketplace::Create("big", SmallSpec(48), plain);
  ASSERT_TRUE(reference.ok());
  ApplyDemand(*reference.value(), 48);
  const std::string want = EngineBytes(*reference.value());
  ASSERT_TRUE(reference.value()->FinishWal().ok());

  HostedMarketplace::Options compacting = plain;
  compacting.durability.compact_after_rounds = 8;
  compacting.durability.retain_compacted = true;
  auto compact =
      HostedMarketplace::Create("cmp", SmallSpec(48), compacting);
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  ApplyDemand(*compact.value(), 48);
  EXPECT_EQ(EngineBytes(*compact.value()), want);
  ASSERT_TRUE(compact.value()->FinishWal().ok());

  const std::string big_log = MarketplaceLogPath(dir_, "big");
  const std::string cmp_log = MarketplaceLogPath(dir_, "cmp");
  EXPECT_LT(fs::file_size(cmp_log), fs::file_size(big_log));
  // The retained predecessor segment is itself a sealed, loadable log.
  auto retained = persist::LoadRecordedRun(cmp_log + ".old");
  ASSERT_TRUE(retained.ok()) << retained.status().ToString();
  EXPECT_TRUE(retained.value().sealed);

  auto run = persist::LoadRecordedRun(cmp_log);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().base_round, 0);
  auto recovered = HostedMarketplace::Recover("cmp", compacting);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->state(), HostedMarketplace::State::kClosed);
  EXPECT_EQ(EngineBytes(*recovered.value()), want);
}

TEST_F(DurabilityGuardTest, RecoveryKeepsTheCompactionCadence) {
  // A crash past a compaction must not shift the later ones: the
  // recovered marketplace rebases at the same rounds as an uninterrupted
  // one, so every sealed WAL file matches it byte for byte.
  HostedMarketplace::Options options;
  options.snapshot_every = 4;
  options.durability.compact_after_rounds = 8;
  // The crash falls after round 15: past the compaction at 8 and the
  // checkpoint at 12, with a flip journaled at round 14 that recovery
  // must re-apply. The return at 43 is still in the final journal.
  const std::vector<Event> events = {
      Demand("mkt", 13),
      Flip("mkt", EventType::kSellerLeave, 3),
      Demand("mkt", 2),
      Demand("mkt", 27),
      Flip("mkt", EventType::kSellerReturn, 3),
      Demand("mkt", 4),
  };
  constexpr std::size_t kCrashAfter = 3;
  auto apply = [](HostedMarketplace& marketplace, const Event& event) {
    std::int64_t remaining = 0;
    Status status = marketplace.ApplyEvent(event, /*max_rounds=*/0,
                                           &remaining);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(remaining, 0);
  };

  const std::string whole = dir_ + "/whole";
  const std::string crashed = dir_ + "/crashed";
  fs::create_directories(whole);
  fs::create_directories(crashed);

  options.wal_dir = whole;
  auto reference = HostedMarketplace::Create("mkt", SmallSpec(46), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const Event& event : events) apply(*reference.value(), event);
  ASSERT_TRUE(reference.value()->FinishWal().ok());

  options.wal_dir = crashed;
  {
    auto doomed = HostedMarketplace::Create("mkt", SmallSpec(46), options);
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    for (std::size_t i = 0; i < kCrashAfter; ++i) {
      apply(*doomed.value(), events[i]);
    }
    ASSERT_EQ(doomed.value()->rounds_settled(), 15);
    // Scope exit drops the marketplace without FinishWal: the crash.
  }
  auto recovered = HostedMarketplace::Recover("mkt", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (std::size_t i = kCrashAfter; i < events.size(); ++i) {
    apply(*recovered.value(), events[i]);
  }
  ASSERT_TRUE(recovered.value()->FinishWal().ok());
  EXPECT_EQ(recovered.value()->guard()->stats().compactions, 4u);

  for (auto path_of : {&MarketplaceLogPath, &MarketplaceSnapshotPath,
                       &MarketplaceJournalPath}) {
    auto want = persist::ReadFileBytes(path_of(whole, "mkt"));
    auto got = persist::ReadFileBytes(path_of(crashed, "mkt"));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got.value() == want.value())
        << path_of(crashed, "mkt") << " differs from the uninterrupted run";
  }
}

TEST_F(DurabilityGuardTest, EveryReplayPathReportsTheDivergentRoundAndField) {
  // A log whose every CRC is valid but whose round 10 records a consumer
  // price one ulp off: full replay, snapshot resume and hosted recovery
  // must each refuse it and name the round and the field.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  {
    auto doomed = HostedMarketplace::Create("div", SmallSpec(20), options);
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    ApplyDemand(*doomed.value(), 10);
  }
  const std::string log_path = MarketplaceLogPath(dir_, "div");
  auto loaded = persist::LoadRecordedRun(log_path, /*allow_torn_tail=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const persist::RecordedRun original = std::move(loaded).value();
  ASSERT_EQ(original.rounds.size(), 10u);
  {
    auto writer = persist::EventLogWriter::Open(log_path, original.config,
                                                original.policy);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    std::size_t note = 0;
    for (market::RoundReport report : original.rounds) {
      if (report.round == 10) {
        report.consumer_price =
            std::nextafter(report.consumer_price, HUGE_VAL);
      }
      ASSERT_TRUE(writer.value()->AppendRound(report).ok());
      for (; note < original.snapshot_rounds.size() &&
             original.snapshot_rounds[note] == report.round;
           ++note) {
        ASSERT_TRUE(writer.value()->AppendSnapshotNote(report.round).ok());
      }
    }
    // Left unsealed, like the crashed original.
  }
  auto tampered = persist::LoadRecordedRun(log_path, /*allow_torn_tail=*/true);
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  auto snapshot =
      persist::ReadSnapshotFile(MarketplaceSnapshotPath(dir_, "div"));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot.value().snapshot.next_round, 9);

  auto expect_divergence = [](const Status& status) {
    EXPECT_EQ(status.code(), util::StatusCode::kInternal)
        << status.ToString();
    EXPECT_NE(status.message().find("round 10 "), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("consumer_price"), std::string::npos)
        << status.ToString();
  };
  expect_divergence(persist::VerifyReplay(tampered.value()).status());
  expect_divergence(
      persist::ResumeFromSnapshot(tampered.value(), snapshot.value())
          .status());
  expect_divergence(HostedMarketplace::Recover("div", options).status());
}

}  // namespace
}  // namespace runtime
}  // namespace cdt
