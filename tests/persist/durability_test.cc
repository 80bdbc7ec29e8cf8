// Durability suite: AtomicWriteFile's all-or-nothing contract under
// injected write failures (the destination is never torn, temp files never
// leak) and snapshot-write failures propagating out of the recorder.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/cmab_hs.h"
#include "core/config.h"
#include "persist/atomic_io.h"
#include "persist/event_log.h"
#include "persist/recorder.h"
#include "market/invariants.h"
#include "market/ledger.h"

namespace cdt {
namespace persist {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stem_ = (std::filesystem::temp_directory_path() /
             ("cdt_durability_" + std::to_string(::getpid())))
                .string();
  }

  void TearDown() override {
    SetAtomicWriteFailureHookForTest(nullptr);
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path(), ec)) {
      const std::string name = entry.path().string();
      if (name.rfind(stem_, 0) == 0) std::filesystem::remove(name, ec);
    }
  }

  std::string stem_;
};

TEST_F(DurabilityTest, AtomicWriteCreatesAndReplaces) {
  const std::string path = stem_ + "_basic";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), "first");
  ASSERT_TRUE(AtomicWriteFile(path, "second, longer content").ok());
  bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), "second, longer content");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(DurabilityTest, FailedWriteLeavesDestinationUntouched) {
  const std::string path = stem_ + "_untouched";
  ASSERT_TRUE(AtomicWriteFile(path, "durable original").ok());

  std::string observed_temp;
  SetAtomicWriteFailureHookForTest(
      [&observed_temp](const std::string& temp_path) {
        observed_temp = temp_path;
        return util::Status::IoError("injected write failure");
      });
  util::Status status = AtomicWriteFile(path, "must never appear");
  SetAtomicWriteFailureHookForTest(nullptr);

  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  // The hook fired after the temp file's bytes were written...
  EXPECT_FALSE(observed_temp.empty());
  // ...yet the destination still holds the original, and the temp file
  // was cleaned up.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), "durable original");
  EXPECT_FALSE(std::filesystem::exists(observed_temp));
}

TEST_F(DurabilityTest, FailedFirstWriteCreatesNothing) {
  const std::string path = stem_ + "_nothing";
  SetAtomicWriteFailureHookForTest([](const std::string&) {
    return util::Status::IoError("injected write failure");
  });
  EXPECT_FALSE(AtomicWriteFile(path, "never lands").ok());
  SetAtomicWriteFailureHookForTest(nullptr);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(DurabilityTest, ReadFileBytesMissingIsNotFound) {
  auto bytes = ReadFileBytes(stem_ + "_does_not_exist");
  EXPECT_EQ(bytes.status().code(), util::StatusCode::kNotFound);
}

TEST_F(DurabilityTest, SnapshotWriteFailurePreservesPreviousSnapshot) {
  const std::string path = stem_ + ".cdtsnap";
  market::EngineSnapshot snapshot;
  snapshot.next_round = 11;
  snapshot.pricing_arms = {{4, 0.5}};
  snapshot.pricing_total_observations = 4;
  snapshot.ledger_balances = {0.0, 0.0, 0.0};
  snapshot.reliability.resize(1);
  snapshot.environment.rng_state = {9, 8, 7, 6};
  snapshot.environment.has_spare = {0};
  snapshot.environment.spare = {0.0};
  ASSERT_TRUE(WriteSnapshotFile(path, 77, snapshot).ok());

  SetAtomicWriteFailureHookForTest([](const std::string&) {
    return util::Status::IoError("disk full");
  });
  snapshot.next_round = 21;
  EXPECT_FALSE(WriteSnapshotFile(path, 77, snapshot).ok());
  SetAtomicWriteFailureHookForTest(nullptr);

  // The earlier checkpoint must still be readable and intact.
  auto recovered = ReadSnapshotFile(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().config_crc, 77u);
  EXPECT_EQ(recovered.value().snapshot.next_round, 11);
}

// Each round the checker reads only the accounts the round paid; every
// other seller's balance is audited where a snapshot is captured. A
// corrupted balance of a seller that never trades (departed) passes rounds
// 3 and 4 and is caught by the round-5 checkpoint's audit, before the
// snapshot is written, and the run stops there.
TEST_F(DurabilityTest, SnapshotAuditCatchesAnUnselectedSellersBalance) {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = 12;
  config.seed = 0xA0D17;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  market::TradingEngine& engine = run.value()->mutable_engine();
  constexpr int kDeparted = 7;
  ASSERT_TRUE(engine.SetSellerActive(kDeparted, false).ok());
  RunRecorder::Options options;
  options.log_path = stem_ + ".cdtlog";
  options.snapshot_path = stem_ + ".cdtsnap";
  options.snapshot_every = 5;
  auto recorder = RunRecorder::Create(options, config, {});
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  engine.AddObserver(std::move(recorder).value());

  for (int round = 1; round <= 2; ++round) {
    ASSERT_TRUE(run.value()->RunRound().ok());
  }
  // The corruption: the departed seller's balance alone moves, as a
  // flipped bit in memory would move it.
  const market::Ledger& ledger = engine.ledger();
  std::vector<double> balances = ledger.balances();
  ASSERT_EQ(balances[2 + kDeparted], 0.0);
  balances[2 + kDeparted] = 0.5;
  ASSERT_TRUE(const_cast<market::Ledger&>(ledger)
                  .Restore(balances, ledger.ConsumerOutflow(),
                           ledger.SellerInflow())
                  .ok());

  util::Status status = util::Status::OK();
  std::int64_t completed = 2;
  for (std::int64_t round = 3; round <= 12; ++round) {
    auto report = run.value()->RunRound();
    if (!report.ok()) {
      status = report.status();
      break;
    }
    ++completed;
  }
  EXPECT_EQ(completed, 4);
  EXPECT_NE(status.ToString().find("invariant violation in round 5"),
            std::string::npos)
      << status.ToString();
  const market::InvariantChecker* checker = engine.invariant_checker();
  ASSERT_NE(checker, nullptr);
  std::vector<std::string> checks;
  for (const market::InvariantViolation& v : checker->violations()) {
    EXPECT_EQ(v.round, 5);
    checks.push_back(v.check);
  }
  ASSERT_EQ(checks, (std::vector<std::string>{"ledger.net_position",
                                              "ledger.seller_balance"}));
  EXPECT_EQ(checker->violations()[1].detail,
            "audit: seller 7 balance 0.5, want 0");
  EXPECT_FALSE(std::filesystem::exists(options.snapshot_path));
}

TEST_F(DurabilityTest, RecorderPropagatesSnapshotWriteFailure) {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = 12;
  config.seed = 0xD15C;

  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  RunRecorder::Options options;
  options.log_path = stem_ + ".cdtlog";
  options.snapshot_path = stem_ + ".cdtsnap";
  options.snapshot_every = 5;
  auto recorder = RunRecorder::Create(options, config, {});
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  run.value()->mutable_engine().AddObserver(std::move(recorder).value());

  SetAtomicWriteFailureHookForTest([](const std::string&) {
    return util::Status::IoError("disk full");
  });
  // Rounds 1-4 record fine; the checkpoint at round 5 cannot write its
  // snapshot and the failure must surface through the engine's observer
  // chain as a failed round, not vanish.
  util::Status status = util::Status::OK();
  std::int64_t completed = 0;
  for (std::int64_t round = 1; round <= 12; ++round) {
    auto report = run.value()->RunRound();
    if (!report.ok()) {
      status = report.status();
      break;
    }
    ++completed;
  }
  SetAtomicWriteFailureHookForTest(nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(completed, 4);
  // The log never claims a snapshot that did not reach disk.
  EXPECT_FALSE(std::filesystem::exists(options.snapshot_path));
}

}  // namespace
}  // namespace persist
}  // namespace cdt
