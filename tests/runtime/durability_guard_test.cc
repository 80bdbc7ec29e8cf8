// The durability circuit breaker under deterministic disk faults:
// storage failures degrade instead of crashing, trading continues
// byte-identically to a fault-free run, re-arm probes restore full
// durability through a rebased log, a permanent fault ends in an
// explicit quarantine, and snapshot-compaction bounds log growth while
// preserving exact recovery — also across a crash.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "market/ledger.h"
#include "market/trading_engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/event_log.h"
#include "persist/io_hooks.h"
#include "persist/replay.h"
#include "persist/serialize.h"
#include "runtime/durability.h"
#include "runtime/marketplace.h"
#include "runtime/service.h"
#include "support/reference_recover.h"

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

// Moves one seller's balance alone, as a flipped bit in memory would.
void CorruptBalance(const HostedMarketplace& marketplace, int seller) {
  const market::Ledger& ledger = marketplace.run().engine().ledger();
  std::vector<double> balances = ledger.balances();
  balances[2 + static_cast<std::size_t>(seller)] += 0.5;
  ASSERT_TRUE(const_cast<market::Ledger&>(ledger)
                  .Restore(balances, ledger.ConsumerOutflow(),
                           ledger.SellerInflow())
                  .ok());
}

std::string EngineBytes(const market::TradingEngine& engine) {
  std::string bytes;
  persist::EncodeEngineSnapshot(engine.CaptureSnapshot(), &bytes);
  return bytes;
}

std::string EngineBytes(const HostedMarketplace& marketplace) {
  return EngineBytes(marketplace.run().engine());
}

// One event-log record framed as EventLogWriter frames it: type byte,
// varint length, payload, CRC-32 of the type byte and the payload.
std::string FrameRecord(persist::RecordType type, std::string_view payload) {
  std::string frame;
  persist::PutByte(&frame, static_cast<std::uint8_t>(type));
  persist::PutVarint64(&frame, payload.size());
  frame.append(payload.data(), payload.size());
  persist::PutFixed32(
      &frame, persist::Crc32(payload, persist::Crc32(frame.substr(0, 1))));
  return frame;
}

// Rewrites the log at `path` with round 2's payload given a trailing
// byte, each record re-framed under a valid CRC: the scan still passes,
// but decoding the round fails.
void GarbleSecondRound(const std::string& path, std::int64_t round_count) {
  auto bytes = persist::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  const persist::EventLogScan scan = persist::ScanEventLog(bytes.value());
  ASSERT_TRUE(scan.status.ok()) << scan.status.ToString();
  std::string garbled(persist::kLogMagic, 8);
  persist::PutVarint64(&garbled, persist::kFormatVersion);
  std::int64_t rounds = 0;
  for (const persist::LogRecord& record : scan.records) {
    std::string payload(record.payload);
    if (record.type == persist::RecordType::kRound && ++rounds == 2) {
      payload.push_back('\0');
    }
    garbled += FrameRecord(record.type, payload);
  }
  ASSERT_TRUE(persist::AtomicWriteFile(path, garbled).ok());
  const persist::EventLogScan rescan = persist::ScanEventLog(garbled);
  ASSERT_TRUE(rescan.status.ok()) << rescan.status.ToString();
  ASSERT_EQ(rescan.round_count, round_count);
}

obs::Counter* FullReplays(const char* reason) {
  return obs::registry().GetCounter(
      "cdt_runtime_recovery_full_replays_total", "", {{"reason", reason}});
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

// The ledger audit that precedes a compaction's rebase snapshot runs
// before any writer is touched. A corrupted balance of a seller that never
// trades (departed) is caught at the round-6 compaction, between the
// round-4 and round-8 checkpoints: the marketplace is quarantined with its
// guard intact, and the drain still seals a WAL that recovers.
TEST_F(DurabilityGuardTest, CompactionAuditViolationQuarantinesAndSeals) {
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  options.durability.compact_after_rounds = 6;
  auto created = HostedMarketplace::Create("cmp", SmallSpec(20), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HostedMarketplace& marketplace = *created.value();
  std::int64_t remaining = 0;
  ASSERT_TRUE(marketplace
                  .ApplyEvent(Flip("cmp", EventType::kSellerLeave, 5), 0,
                              &remaining)
                  .ok());
  ApplyDemand(marketplace, 4);
  CorruptBalance(marketplace, 5);

  Status status = marketplace.ApplyEvent(Demand("cmp", 10), 0, &remaining);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("invariant violation in round 6"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kQuarantined);
  EXPECT_EQ(marketplace.rounds_settled(), 6);
  const DurabilityGuard::Stats stats = marketplace.guard()->stats();
  EXPECT_EQ(stats.health, DurabilityGuard::Health::kDurable);
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.wal_failures, 0u);

  // The drain's final checkpoint audits again and writes no snapshot, but
  // the log is sealed and recovers through round 6.
  EXPECT_FALSE(marketplace.FinishWal().ok());
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kClosed);
  auto recovered = HostedMarketplace::Recover("cmp", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->state(), HostedMarketplace::State::kClosed);
  EXPECT_EQ(recovered.value()->rounds_settled(), 6);
}

// A degraded guard's re-arm snapshot is audited first: a corrupted
// balance stops the run in the re-arm round (15 = degrade at 11 + 4), and
// is not counted as a failed re-arm.
TEST_F(DurabilityGuardTest, RearmAuditViolationStopsTheRun) {
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  options.durability.degrade_after_failures = 1;
  options.durability.rearm_initial_rounds = 4;
  IoHooks::Instance().EnableCounting();
  auto created = HostedMarketplace::Create("rearm", SmallSpec(60), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HostedMarketplace& marketplace = *created.value();
  std::int64_t remaining = 0;
  ASSERT_TRUE(marketplace
                  .ApplyEvent(Flip("rearm", EventType::kSellerLeave, 5), 0,
                              &remaining)
                  .ok());
  ApplyDemand(marketplace, 10);
  IoFault fault;
  fault.op = IoOp::kWrite;
  fault.from_index = IoHooks::Instance().ops_seen(IoOp::kWrite);
  fault.count = 1;
  IoHooks::Instance().Arm(fault);
  ApplyDemand(marketplace, 2);
  ASSERT_EQ(marketplace.guard()->health(),
            DurabilityGuard::Health::kDegraded);
  const std::uint64_t wal_failures =
      marketplace.guard()->stats().wal_failures;
  CorruptBalance(marketplace, 5);

  Status status =
      marketplace.ApplyEvent(Demand("rearm", 10), 0, &remaining);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("invariant violation in round 15"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kQuarantined);
  EXPECT_EQ(marketplace.rounds_settled(), 15);
  const DurabilityGuard::Stats stats = marketplace.guard()->stats();
  EXPECT_EQ(stats.health, DurabilityGuard::Health::kDegraded);
  EXPECT_EQ(stats.wal_failures, wal_failures);
  EXPECT_EQ(stats.rearms, 0u);
  // The drain's last re-arm probe audits first too, and fails cleanly.
  EXPECT_FALSE(marketplace.FinishWal().ok());
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kClosed);
}

// A marketplace closed before its last round ends its run there, so the
// drain runs the audit even without snapshots, and still seals the log.
TEST_F(DurabilityGuardTest, EarlyCloseAuditsTheLedger) {
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  auto created = HostedMarketplace::Create("early", SmallSpec(20), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  HostedMarketplace& marketplace = *created.value();
  std::int64_t remaining = 0;
  ASSERT_TRUE(marketplace
                  .ApplyEvent(Flip("early", EventType::kSellerLeave, 5), 0,
                              &remaining)
                  .ok());
  ApplyDemand(marketplace, 3);
  CorruptBalance(marketplace, 5);
  ApplyDemand(marketplace, 2);
  ASSERT_EQ(marketplace.state(), HostedMarketplace::State::kActive);

  Event close;
  close.type = EventType::kCloseMarketplace;
  close.marketplace = "early";
  Status status = marketplace.ApplyEvent(close, 0, &remaining);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("invariant violation in round 5"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(marketplace.state(), HostedMarketplace::State::kClosed);
  auto recovered = HostedMarketplace::Recover("early", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->state(), HostedMarketplace::State::kClosed);
  EXPECT_EQ(recovered.value()->rounds_settled(), 5);
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

TEST_F(DurabilityGuardTest, RecoveryReadsEachWalFileOnce) {
  // Log, journal and snapshot are read once each: the log's scan also
  // positions the reattached writer, and the journal's contents reopen the
  // journal. The reference recovery, which reads and scans both again to
  // reattach, makes five reads and rebuilds the same engine.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  {
    auto live = HostedMarketplace::Create("mkt", SmallSpec(40), options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ApplyDemand(*live.value(), 10);
    std::int64_t remaining = 0;
    ASSERT_TRUE(live.value()
                    ->ApplyEvent(Flip("mkt", EventType::kSellerLeave, 2), 0,
                                 &remaining)
                    .ok());
    ApplyDemand(*live.value(), 3);
    // Crash: dropped without FinishWal.
  }
  IoHooks& hooks = IoHooks::Instance();
  hooks.EnableCounting();
  auto recovered = HostedMarketplace::Recover("mkt", options);
  EXPECT_EQ(hooks.ops_seen(IoOp::kRead), 3u);
  hooks.Reset();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_settled(), 13);
  EXPECT_FALSE(recovered.value()->run().engine().seller_active(2));

  hooks.EnableCounting();
  auto reference = testsupport::ReferenceRecoverMarketplace("mkt", options);
  EXPECT_EQ(hooks.ops_seen(IoOp::kRead), 5u);
  hooks.Reset();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(EngineBytes(reference.value().run->engine()),
            EngineBytes(*recovered.value()));
}

TEST_F(DurabilityGuardTest, TornTailRecoveryTruncatesToTheScanEnd) {
  // A crash tore the log's last record. Recovery still reads each file
  // once, the reattached writer cuts the log back to where its scan found
  // the last complete record, and the finished WAL is byte-identical to an
  // uninterrupted run's.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  {
    auto reference = HostedMarketplace::Create("ref", SmallSpec(20), options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ApplyDemand(*reference.value(), 20);
    ASSERT_TRUE(reference.value()->FinishWal().ok());
  }
  {
    auto live = HostedMarketplace::Create("mkt", SmallSpec(20), options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ApplyDemand(*live.value(), 13);
  }
  const std::string log_path = MarketplaceLogPath(dir_, "mkt");
  const auto complete = fs::file_size(log_path);
  {
    const std::string torn =
        FrameRecord(persist::RecordType::kRound, std::string(40, 'x'))
            .substr(0, 20);
    std::FILE* file = std::fopen(log_path.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(torn.data(), 1, torn.size(), file), torn.size());
    std::fclose(file);
  }
  ASSERT_GT(fs::file_size(log_path), complete);

  IoHooks& hooks = IoHooks::Instance();
  hooks.EnableCounting();
  auto recovered = HostedMarketplace::Recover("mkt", options);
  EXPECT_EQ(hooks.ops_seen(IoOp::kRead), 3u);
  hooks.Reset();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_settled(), 13);
  EXPECT_EQ(fs::file_size(log_path), complete);

  ApplyDemand(*recovered.value(), 7);
  ASSERT_TRUE(recovered.value()->FinishWal().ok());
  for (auto path_of : {MarketplaceLogPath, MarketplaceSnapshotPath,
                       MarketplaceJournalPath}) {
    auto got = persist::ReadFileBytes(path_of(dir_, "mkt"));
    auto want = persist::ReadFileBytes(path_of(dir_, "ref"));
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(got.value() == want.value())
        << path_of(dir_, "mkt") << " differs from the uninterrupted run";
  }
}

TEST_F(DurabilityGuardTest, UnreadableSnapshotFallsBackToAFullReplayThatIsCounted) {
  // One flipped byte fails the snapshot's CRC. Recovery replays the whole
  // log instead, counts why, and checkpoints at once so the next crash
  // need not. The finished WAL matches an uninterrupted run's in every
  // round record, snapshot and journal byte; the log carries one more
  // snapshot note, the repair checkpoint's.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  {
    auto reference = HostedMarketplace::Create("ref", SmallSpec(20), options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ApplyDemand(*reference.value(), 20);
    ASSERT_TRUE(reference.value()->FinishWal().ok());
  }
  {
    auto live = HostedMarketplace::Create("mkt", SmallSpec(20), options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ApplyDemand(*live.value(), 10);
  }
  const std::string snapshot_path = MarketplaceSnapshotPath(dir_, "mkt");
  {
    auto bytes = persist::ReadFileBytes(snapshot_path);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    std::string flipped = std::move(bytes).value();
    flipped[flipped.size() / 2] ^= 0x01;
    ASSERT_TRUE(persist::AtomicWriteFile(snapshot_path, flipped).ok());
  }
  const double unreadable = FullReplays("unreadable_snapshot")->value();
  const double missing = FullReplays("no_snapshot")->value();

  auto recovered = HostedMarketplace::Recover("mkt", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(FullReplays("unreadable_snapshot")->value(), unreadable + 1);
  EXPECT_EQ(FullReplays("no_snapshot")->value(), missing);
  EXPECT_EQ(recovered.value()->rounds_settled(), 10);
  ApplyDemand(*recovered.value(), 10);
  ASSERT_TRUE(recovered.value()->FinishWal().ok());

  for (auto path_of : {MarketplaceSnapshotPath, MarketplaceJournalPath}) {
    auto got = persist::ReadFileBytes(path_of(dir_, "mkt"));
    auto want = persist::ReadFileBytes(path_of(dir_, "ref"));
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(got.value() == want.value())
        << path_of(dir_, "mkt") << " differs from the uninterrupted run";
  }
  auto got = persist::LoadRecordedLog(MarketplaceLogPath(dir_, "mkt"));
  auto want = persist::LoadRecordedLog(MarketplaceLogPath(dir_, "ref"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(got.value().round_payloads == want.value().round_payloads);
  std::vector<std::int64_t> notes = want.value().snapshot_rounds;
  notes.insert(std::find(notes.begin(), notes.end(), 12), 10);
  EXPECT_EQ(got.value().snapshot_rounds, notes);
}

TEST_F(DurabilityGuardTest, FullReplayOfALargeMarketplaceIsByteTrue) {
  // With its snapshot deleted, a marketplace of 20,000 sellers recovers by
  // replaying its whole log, so it runs Algorithm 1's select-all round 1
  // again, and the scratch that round grows is released again. The
  // recovered marketplace then finishes its run, and every round record,
  // the final snapshot and the journal match an uninterrupted run's.
  MarketplaceSpec spec;
  spec.config.num_sellers = 20000;
  spec.config.num_selected = 141;
  spec.config.num_pois = 4;
  spec.config.num_rounds = 30;
  spec.config.seed = 0x2A11;
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 10;
  // Seller 17 leaves after round 25 and returns after the crash.
  auto flip = [](HostedMarketplace& marketplace, EventType type) {
    std::int64_t remaining = 0;
    return marketplace.ApplyEvent(Flip(marketplace.id(), type, 17), 0,
                                  &remaining);
  };
  {
    auto reference = HostedMarketplace::Create("ref", spec, options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ApplyDemand(*reference.value(), 30);
    ASSERT_TRUE(reference.value()->FinishWal().ok());
  }
  {
    auto live = HostedMarketplace::Create("mkt", spec, options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ApplyDemand(*live.value(), 25);
    ASSERT_TRUE(flip(*live.value(), EventType::kSellerLeave).ok());
  }
  ASSERT_TRUE(fs::remove(MarketplaceSnapshotPath(dir_, "mkt")));
  const double missing = FullReplays("no_snapshot")->value();

  auto recovered = HostedMarketplace::Recover("mkt", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(FullReplays("no_snapshot")->value(), missing + 1);
  EXPECT_EQ(recovered.value()->rounds_settled(), 25);
  EXPECT_FALSE(recovered.value()->run().engine().seller_active(17));
  ASSERT_TRUE(flip(*recovered.value(), EventType::kSellerReturn).ok());
  ApplyDemand(*recovered.value(), 5);
  ASSERT_TRUE(recovered.value()->FinishWal().ok());

  // The reference never saw the flips: compare it through round 25, and
  // the recovered run against a second uninterrupted one with the same
  // flips for everything after.
  {
    auto twin = HostedMarketplace::Create("twin", spec, options);
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();
    ApplyDemand(*twin.value(), 25);
    ASSERT_TRUE(flip(*twin.value(), EventType::kSellerLeave).ok());
    ASSERT_TRUE(flip(*twin.value(), EventType::kSellerReturn).ok());
    ApplyDemand(*twin.value(), 5);
    ASSERT_TRUE(twin.value()->FinishWal().ok());
  }
  for (auto path_of : {MarketplaceSnapshotPath, MarketplaceJournalPath}) {
    auto got = persist::ReadFileBytes(path_of(dir_, "mkt"));
    auto want = persist::ReadFileBytes(path_of(dir_, "twin"));
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(got.value() == want.value())
        << path_of(dir_, "mkt") << " differs from the uninterrupted run";
  }
  auto got = persist::LoadRecordedLog(MarketplaceLogPath(dir_, "mkt"));
  auto twin = persist::LoadRecordedLog(MarketplaceLogPath(dir_, "twin"));
  auto ref = persist::LoadRecordedLog(MarketplaceLogPath(dir_, "ref"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_TRUE(got.value().round_payloads == twin.value().round_payloads);
  ASSERT_EQ(ref.value().round_payloads.size(), 30u);
  EXPECT_TRUE(std::equal(ref.value().round_payloads.begin(),
                         ref.value().round_payloads.begin() + 25,
                         got.value().round_payloads.begin()));
}

TEST_F(DurabilityGuardTest, GarbledRoundBeforeTheSnapshotFailsEveryLoad) {
  // Round 2's record is re-framed around a payload with a trailing byte,
  // under a valid CRC. The scan passes it and the tail replay never
  // reaches it, but the load decodes every round: both loaders and
  // recovery fail with ParseError.
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  {
    auto live = HostedMarketplace::Create("mkt", SmallSpec(20), options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ApplyDemand(*live.value(), 10);
  }
  const std::string log_path = MarketplaceLogPath(dir_, "mkt");
  ASSERT_NO_FATAL_FAILURE(GarbleSecondRound(log_path, 10));
  auto expect_parse_error = [](const Status& status) {
    EXPECT_EQ(status.code(), util::StatusCode::kParseError)
        << status.ToString();
    EXPECT_NE(status.message().find("trailing bytes after round payload"),
              std::string::npos)
        << status.ToString();
  };
  expect_parse_error(persist::LoadRecordedRun(log_path, true).status());
  expect_parse_error(persist::LoadRecordedLog(log_path, true).status());
  expect_parse_error(HostedMarketplace::Recover("mkt", options).status());
}

// --- A shard's recovery: the crash-loop breaker and the IO retry --------
//
// A worker rebuilds an unknown marketplace from its WAL on the first event
// addressed to it. A read that fails with an IO error is retried within the
// event; any other failure feeds the marketplace's crash-loop breaker,
// which opens after 3 consecutive failures and sheds the marketplace's
// events for the next 25 shard events before it tries again.

constexpr int kBreakerThreshold = 3;
constexpr int kBreakerCooldown = 25;

obs::Counter* Shed(const char* reason) {
  return obs::registry().GetCounter("cdt_runtime_shed_total", "",
                                    {{"reason", reason}});
}

Event Tick(const std::string& id) {
  Event event;
  event.type = EventType::kRoundTick;
  event.marketplace = id;
  return event;
}

class ShardRecoveryTest : public DurabilityGuardTest {
 protected:
  void TearDown() override {
    service_.reset();
    DurabilityGuardTest::TearDown();
  }

  /// One shard, so every event reaches the same worker in submission
  /// order; started on the first Run, with no background watchdog.
  void StartService() {
    MarketplaceService::Options options;
    options.num_shards = 1;
    options.queue_capacity = 64;
    options.wal_dir = dir_;
    options.snapshot_every = 4;
    options.autostart = false;
    options.watchdog_period = std::chrono::milliseconds(0);
    auto service = MarketplaceService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
  }

  /// Submits `events`, then waits until the worker has processed them.
  void Run(const std::vector<Event>& events) {
    const std::uint64_t target =
        service_->GetStats().events_processed + events.size();
    for (const Event& event : events) {
      ASSERT_EQ(service_->Submit(event),
                MarketplaceService::Admission::kAccepted);
    }
    service_->Start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service_->GetStats().events_processed < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service_->GetStats().events_processed, target);
  }

  std::unique_ptr<MarketplaceService> service_;
};

TEST_F(ShardRecoveryTest, UnknownMarketplaceIsShedAsUnknownWithoutABreaker) {
  ASSERT_NO_FATAL_FAILURE(StartService());
  const double unknown = Shed("unknown")->value();
  const double crashloop = Shed("crashloop")->value();
  // More events than the breaker's threshold and cooldown together: with
  // no WAL there is nothing to recover, so no event may count as a
  // failed recovery.
  ASSERT_NO_FATAL_FAILURE(Run(std::vector<Event>(
      kBreakerThreshold + kBreakerCooldown + 2, Tick("ghost"))));
  EXPECT_EQ(Shed("unknown")->value(),
            unknown + kBreakerThreshold + kBreakerCooldown + 2);
  EXPECT_EQ(Shed("crashloop")->value(), crashloop);
  EXPECT_EQ(service_->GetStats().shards[0].shed_by_worker,
            static_cast<std::uint64_t>(kBreakerThreshold +
                                       kBreakerCooldown + 2));
}

TEST_F(ShardRecoveryTest, CrashLoopingRecoveryCoolsDownThenRetries) {
  HostedMarketplace::Options options;
  options.wal_dir = dir_;
  options.snapshot_every = 4;
  {
    auto live = HostedMarketplace::Create("mkt", SmallSpec(20), options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ApplyDemand(*live.value(), 10);
  }
  ASSERT_NO_FATAL_FAILURE(
      GarbleSecondRound(MarketplaceLogPath(dir_, "mkt"), 10));
  ASSERT_NO_FATAL_FAILURE(StartService());
  // Counting starts after the startup scrub: from here every read of the
  // log is one recovery attempt (a failed load reads nothing else).
  IoHooks::Instance().EnableCounting();
  const double unrecoverable = Shed("unrecoverable")->value();
  const double crashloop = Shed("crashloop")->value();
  const double unknown = Shed("unknown")->value();

  // The first 3 events each try once and fail with a parse error; the
  // breaker opens on the third (shard event 2). The next 24 events fall
  // inside its cooldown and are shed without a read.
  ASSERT_NO_FATAL_FAILURE(Run(std::vector<Event>(
      kBreakerThreshold + kBreakerCooldown - 1, Tick("mkt"))));
  EXPECT_EQ(IoHooks::Instance().ops_seen(IoOp::kRead),
            static_cast<std::uint64_t>(kBreakerThreshold));
  EXPECT_EQ(Shed("unrecoverable")->value(),
            unrecoverable + kBreakerThreshold);
  EXPECT_EQ(Shed("crashloop")->value(), crashloop + kBreakerCooldown - 1);

  // Shard event 27 is 25 events after the opening one: the breaker lets
  // one attempt through, which fails and reopens it at once, so event 28
  // is shed again.
  ASSERT_NO_FATAL_FAILURE(Run({Tick("mkt"), Tick("mkt")}));
  EXPECT_EQ(IoHooks::Instance().ops_seen(IoOp::kRead),
            static_cast<std::uint64_t>(kBreakerThreshold + 1));
  EXPECT_EQ(Shed("unrecoverable")->value(),
            unrecoverable + kBreakerThreshold + 1);
  EXPECT_EQ(Shed("crashloop")->value(), crashloop + kBreakerCooldown);
  EXPECT_EQ(Shed("unknown")->value(), unknown);
  EXPECT_EQ(service_->GetStats().shards[0].recoveries, 0u);
}

TEST_F(ShardRecoveryTest, TransientReadFaultIsRetriedAndRecoveryIsByteTrue) {
  HostedMarketplace::Options options;
  options.wal_dir = dir_ + "/reference";
  options.snapshot_every = 4;
  fs::create_directories(options.wal_dir);
  {
    auto reference = HostedMarketplace::Create("mkt", SmallSpec(30), options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ApplyDemand(*reference.value(), 30);
    ASSERT_TRUE(reference.value()->FinishWal().ok());
  }
  // The same marketplace crashes after 20 rounds, leaving a torn log.
  options.wal_dir = dir_;
  {
    auto live = HostedMarketplace::Create("mkt", SmallSpec(30), options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ApplyDemand(*live.value(), 20);
  }

  IoHooks::Instance().EnableCounting();
  ASSERT_NO_FATAL_FAILURE(StartService());
  // The first read after startup, the recovery's read of the log, fails
  // with EIO once; the retry within the same event reads it.
  IoFault fault;
  fault.op = IoOp::kRead;
  fault.from_index = IoHooks::Instance().ops_seen(IoOp::kRead);
  fault.count = 1;
  fault.error = EIO;
  IoHooks::Instance().Arm(fault);
  const double crashloop = Shed("crashloop")->value();

  Event close;
  close.type = EventType::kCloseMarketplace;
  close.marketplace = "mkt";
  ASSERT_NO_FATAL_FAILURE(Run({Demand("mkt", 10), close}));
  service_->Drain();
  // The faulted read happened, and the reads after it were the retry's.
  EXPECT_GT(IoHooks::Instance().ops_seen(IoOp::kRead), fault.from_index + 1);
  const MarketplaceService::Stats stats = service_->GetStats();
  EXPECT_EQ(stats.shards[0].recoveries, 1u);
  EXPECT_EQ(stats.total_shed, 0u);
  EXPECT_EQ(Shed("crashloop")->value(), crashloop);

  IoHooks::Instance().Reset();
  auto want = persist::LoadRecordedLog(
      MarketplaceLogPath(dir_ + "/reference", "mkt"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = persist::LoadRecordedLog(MarketplaceLogPath(dir_, "mkt"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().sealed);
  EXPECT_EQ(got.value().round_count, 30);
  EXPECT_TRUE(got.value().round_payloads == want.value().round_payloads);
}

}  // namespace
}  // namespace runtime
}  // namespace cdt
