// A checkpoint encodes the live engine's state in place
// (TradingEngine::SnapshotView): the bank's columns, the tracker's rows and
// the environment's sampler rows, read where they live. Its bytes, and the
// snapshot file's, must be those of the captured copy
// (TradingEngine::CaptureSnapshot) under the per-field oracle encoder, at
// every scale, with departed sellers, every fault kind and sampler spares
// both set and unset.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cmab_hs.h"
#include "core/config.h"
#include "market/trading_engine.h"
#include "persist/atomic_io.h"
#include "persist/event_log.h"
#include "persist/serialize.h"
#include "support/reference_snapshot_codec.h"

namespace cdt {
namespace persist {
namespace {

core::MechanismConfig FaultyConfig(int m) {
  core::MechanismConfig config;
  config.num_sellers = m;
  config.num_selected = std::max(1, std::min(m / 30, 141));
  config.num_pois = 3;  // odd: a batch leaves its seller's spare set or not
  config.num_rounds = 1000;
  config.seed = 0x5EED + static_cast<std::uint64_t>(m);
  config.faults.default_rate = 0.15;
  config.faults.corrupt_rate = 0.15;
  config.faults.partial_rate = 0.15;
  config.faults.settlement_failure_rate = 0.3;
  config.recovery.quarantine_threshold = 1;
  config.recovery.max_settlement_retries = 1;
  return config;
}

class SnapshotViewTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("cdt_snapshot_view_" + std::to_string(::getpid()) + "_" +
              std::to_string(GetParam()) + ".cdtsnap"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  // The live view's encoding and file against the captured copy's under
  // the per-field oracle.
  void ExpectViewMatchesCapture(const market::TradingEngine& engine,
                                std::uint32_t crc) {
    const market::EngineSnapshot captured = engine.CaptureSnapshot();
    std::string want = "prefix";
    testsupport::ReferenceEncodeEngineSnapshot(captured, &want);
    std::string got = "prefix";
    EncodeEngineSnapshot(engine.SnapshotView(), &got);
    ASSERT_EQ(got, want) << "round " << engine.current_round();
    ASSERT_EQ(EngineSnapshotSize(engine.SnapshotView()), want.size() - 6);

    ASSERT_TRUE(WriteSnapshotFile(path_, crc, engine.SnapshotView()).ok());
    auto file = ReadFileBytes(path_);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_EQ(file.value(),
              testsupport::ReferenceSnapshotFileBytes(crc, captured))
        << "round " << engine.current_round();
  }

  std::string path_;
};

TEST_P(SnapshotViewTest, LiveViewEncodesToTheCapturedSnapshotsBytes) {
  const int m = GetParam();
  const core::MechanismConfig config = FaultyConfig(m);
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  market::TradingEngine& engine = run.value()->mutable_engine();

  ExpectViewMatchesCapture(engine, 11);  // before round 1: every arm cold
  const int rounds = m >= 20000 ? 40 : 120;
  for (int round = 1; round <= rounds; ++round) {
    ASSERT_TRUE(run.value()->RunRound().ok()) << "round " << round;
    // Sellers leave and some return, so the activity bitmap is present
    // and mixed (a single seller can never leave).
    if (m > 1 && round % 7 == 3) {
      const int seller = (round * 7919) % m;
      ASSERT_TRUE(engine.SetSellerActive(seller, false).ok());
      if (round % 2 == 0) {
        ASSERT_TRUE(engine.SetSellerActive((seller + m / 2) % m, true).ok());
      }
    }
    if (round == 1 || round % 13 == 0 || round == rounds) {
      ExpectViewMatchesCapture(engine, static_cast<std::uint32_t>(round));
    }
  }

  // The checked states cover what the view reads in place.
  const market::EngineSnapshot last = engine.CaptureSnapshot();
  using market::FaultKind;
  for (FaultKind kind :
       {FaultKind::kSellerDefault, FaultKind::kCorruptedReport,
        FaultKind::kPartialDelivery, FaultKind::kSettlementFailure}) {
    EXPECT_GT(engine.fault_count(kind), 0) << static_cast<int>(kind);
  }
  if (m > 1) {
    EXPECT_GT(engine.fault_count(FaultKind::kQuarantine), 0);
    EXPECT_GT(engine.inactive_sellers(), 0);
    EXPECT_FALSE(last.seller_active.empty());
    const auto set = std::count(last.environment.has_spare.begin(),
                                last.environment.has_spare.end(), 1);
    EXPECT_GT(set, 0);
    EXPECT_LT(set, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Sellers, SnapshotViewTest,
                         ::testing::Values(1, 300, 20000));

}  // namespace
}  // namespace persist
}  // namespace cdt
