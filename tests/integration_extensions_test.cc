// Integration tests for the extension features working *together*: a
// budgeted campaign recorded to an event log and analysed offline from the
// decoded rounds.

#include <filesystem>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/run_analysis.h"
#include "core/cmab_hs.h"
#include "persist/recorder.h"
#include "persist/replay.h"

namespace cdt {
namespace {

TEST(ExtensionsIntegrationTest, BudgetedCampaignRoundTripsThroughRunLog) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("cdt_ext_" + std::to_string(::getpid()) + ".cdtlog");

  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 3;
  config.num_rounds = 300;
  config.consumer_budget = 20000.0;
  config.seed = 25;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  persist::RunRecorder::Options options;
  options.log_path = path.string();
  auto recorder = persist::RunRecorder::Create(options, config,
                                               run.value()->policy_spec());
  ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
  persist::RunRecorder* log = recorder.value().get();
  run.value()->mutable_engine().AddObserver(std::move(recorder).value());
  ASSERT_TRUE(run.value()->RunAll().ok());
  ASSERT_TRUE(log->Finish().ok());

  // The campaign stopped early on budget; the log must agree exactly with
  // the engine on executed rounds and spend.
  ASSERT_TRUE(run.value()->engine().budget_exhausted());
  auto recorded = persist::LoadRecordedRun(path.string());
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  const std::vector<market::RoundReport>& rounds = recorded.value().rounds;
  EXPECT_EQ(static_cast<std::int64_t>(rounds.size()),
            run.value()->engine().current_round());
  double spend = 0.0;
  for (const market::RoundReport& report : rounds) {
    spend += report.consumer_price * report.total_time;
  }
  EXPECT_NEAR(spend, run.value()->engine().ledger().ConsumerOutflow(),
              1e-6);
  EXPECT_LE(spend, config.consumer_budget + 1e-6);

  auto stats = analysis::Summarize(rounds);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rounds,
            run.value()->engine().current_round());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cdt
