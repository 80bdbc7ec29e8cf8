// Campaign runner: the "operations" workflow a platform team would use.
// Reads mechanism parameters from a key=value config file (or flags), runs
// the campaign while recording every round to an event log, then loads the
// log back and prints the offline analysis (summary, regret curve
// checkpoints, selection convergence). `cdt_replay verify` and
// `cdt_replay export-csv` read the same log.
//
//   ./campaign_runner [--config=<file>] [--log=<cdtlog>] [--m=50] [--k=5]
//                     [--rounds=2000] [--seed=11]
//
// Config file lines mirror the flags, e.g.:
//   m = 100
//   k = 10
//   rounds = 5000
//   omega = 1200

#include <fstream>
#include <iostream>

#include "analysis/run_analysis.h"
#include "core/cmab_hs.h"
#include "persist/recorder.h"
#include "persist/replay.h"
#include "util/config.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

cdt::util::Result<cdt::util::ConfigMap> LoadOptions(int argc, char** argv) {
  using cdt::util::ConfigMap;
  auto flags = ConfigMap::FromArgs(argc, argv);
  if (!flags.ok()) return flags.status();
  auto config_path = flags.value().GetString("config", "");
  if (!config_path.ok()) return config_path.status();
  if (config_path.value().empty()) return flags;

  std::ifstream in(config_path.value());
  if (!in.is_open()) {
    return cdt::util::Status::IoError("cannot open config file: " +
                                      config_path.value());
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  auto from_file = ConfigMap::FromLines(lines);
  if (!from_file.ok()) return from_file.status();
  // Command-line flags override file entries.
  ConfigMap merged = from_file.value();
  for (const auto& [key, value] : flags.value().entries()) {
    merged.Set(key, value);
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdt;

  auto opts = LoadOptions(argc, argv);
  if (!opts.ok()) {
    std::cerr << opts.status().ToString() << "\n";
    return 1;
  }

  core::MechanismConfig config;
  config.num_sellers =
      static_cast<int>(opts.value().GetInt("m", 50).value_or(50));
  config.num_selected =
      static_cast<int>(opts.value().GetInt("k", 5).value_or(5));
  config.num_pois =
      static_cast<int>(opts.value().GetInt("l", 10).value_or(10));
  config.num_rounds = opts.value().GetInt("rounds", 2000).value_or(2000);
  config.omega = opts.value().GetDouble("omega", 1000.0).value_or(1000.0);
  config.theta = opts.value().GetDouble("theta", 0.1).value_or(0.1);
  config.lambda = opts.value().GetDouble("lambda", 1.0).value_or(1.0);
  config.consumer_budget =
      opts.value().GetDouble("budget", 0.0).value_or(0.0);
  config.seed = static_cast<std::uint64_t>(
      opts.value().GetInt("seed", 11).value_or(11));
  std::string log_path =
      opts.value().GetString("log", "campaign.cdtlog").value_or("");

  if (!config.Validate().ok()) {
    std::cerr << "invalid configuration: "
              << config.Validate().ToString() << "\n";
    return 1;
  }

  std::cout << "Campaign: M=" << config.num_sellers << " K="
            << config.num_selected << " L=" << config.num_pois << " N="
            << config.num_rounds << " omega=" << config.omega
            << (config.consumer_budget > 0.0
                    ? " budget=" + util::FormatDouble(config.consumer_budget, 0)
                    : "")
            << "\n";

  auto run = core::CmabHs::Create(config);
  if (!run.ok()) {
    std::cerr << run.status().ToString() << "\n";
    return 1;
  }
  persist::RunRecorder::Options record;
  record.log_path = log_path;
  auto recorder = persist::RunRecorder::Create(record, config,
                                               run.value()->policy_spec());
  if (!recorder.ok()) {
    std::cerr << recorder.status().ToString() << "\n";
    return 1;
  }
  persist::RunRecorder* log = recorder.value().get();
  run.value()->mutable_engine().AddObserver(std::move(recorder).value());
  util::Status status = run.value()->RunAll();
  if (status.ok()) status = log->Finish();
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }

  // --- offline analysis from the recorded log ---
  auto recorded = persist::LoadRecordedRun(log_path);
  if (!recorded.ok()) {
    std::cerr << recorded.status().ToString() << "\n";
    return 1;
  }
  const std::vector<market::RoundReport>& rounds = recorded.value().rounds;
  std::cout << "Event log: " << log_path << " (" << rounds.size()
            << " rounds)\n\n";
  auto stats = analysis::Summarize(rounds);
  if (!stats.ok()) {
    std::cerr << stats.status().ToString() << "\n";
    return 1;
  }
  util::TablePrinter summary({"metric", "value"});
  summary.AddRow({"rounds executed", std::to_string(stats.value().rounds)});
  summary.AddRow({"total PoC",
                  util::FormatDouble(stats.value().total_consumer_profit, 1)});
  summary.AddRow({"total PoP",
                  util::FormatDouble(stats.value().total_platform_profit, 1)});
  summary.AddRow({"total PoS",
                  util::FormatDouble(stats.value().total_seller_profit, 1)});
  summary.AddRow({"quality revenue (expected)",
                  util::FormatDouble(stats.value().total_expected_revenue, 1)});
  summary.AddRow({"quality revenue (observed)",
                  util::FormatDouble(stats.value().total_observed_revenue, 1)});
  summary.AddRow({"mean p^J",
                  util::FormatDouble(stats.value().mean_consumer_price, 3)});
  summary.AddRow({"mean p",
                  util::FormatDouble(stats.value().mean_collection_price, 3)});
  summary.Print(std::cout);

  double optimal_round =
      run.value()->environment().OptimalSetQuality(config.num_selected) *
      config.num_pois;
  auto regret = analysis::CumulativeRegretCurve(rounds, optimal_round);
  if (regret.ok() && !regret.value().empty()) {
    std::cout << "\nCumulative regret checkpoints:\n";
    for (double frac : {0.25, 0.5, 0.75, 1.0}) {
      std::size_t round = static_cast<std::size_t>(
          frac * static_cast<double>(regret.value().size()));
      if (round == 0) continue;  // fewer than 1/frac rounds
      std::cout << "  round " << round << ": "
                << util::FormatDouble(regret.value()[round - 1], 1) << "\n";
    }
  }
  auto converged = analysis::DetectSelectionConvergence(rounds, 50);
  if (converged.ok()) {
    if (converged.value() > 0) {
      std::cout << "\nSelection converged at round " << converged.value()
                << " (stable for the rest of the campaign).\n";
    } else {
      std::cout << "\nSelection still exploring at campaign end.\n";
    }
  }
  return 0;
}
