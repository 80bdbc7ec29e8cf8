// cdt_replay — inspect, verify and resume recorded CDT event logs.
//
//   cdt_replay inspect <log>                 header, config, round count
//   cdt_replay verify <log>                  re-run + byte-compare (gate)
//   cdt_replay export-csv <log> <csv>        decode rounds to a CSV table
//   cdt_replay resume <log> <snapshot>       restore + tail-replay, then
//                                            finish the campaign live
//
// `verify` is the replay upgrade gate: exit 0 means this build reproduces
// the recorded trace bit-for-bit. `inspect` and `export-csv` tolerate torn
// logs (crashed recordings); `verify` demands a sealed one. The event log
// is the durable recording; the CSV is a convenience export with no
// durability contract.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cmab_hs.h"
#include "market/faults.h"
#include "persist/event_log.h"
#include "persist/replay.h"
#include "util/csv.h"
#include "util/signal.h"
#include "util/string_util.h"

namespace {

using namespace cdt;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "cdt_replay: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: cdt_replay inspect <log>\n"
               "       cdt_replay verify <log>\n"
               "       cdt_replay export-csv <log> <csv>\n"
               "       cdt_replay resume <log> <snapshot>\n");
  return 2;
}

int Inspect(const std::string& path) {
  auto recorded = persist::LoadRecordedRun(path, /*allow_torn_tail=*/true);
  if (!recorded.ok()) return Fail(recorded.status());
  const persist::RecordedRun& run = recorded.value();
  std::printf("log:            %s\n", path.c_str());
  std::printf("format version: %" PRIu64 "\n", persist::kFormatVersion);
  std::printf("config crc:     %u\n", run.config_crc);
  std::printf("policy:         %s\n", run.policy.Name().c_str());
  std::printf("scale:          M=%d K=%d L=%d N=%" PRId64 " seed=%" PRIu64
              "\n",
              run.config.num_sellers, run.config.num_selected,
              run.config.num_pois, run.config.num_rounds, run.config.seed);
  std::printf("faults:         default=%g corrupt=%g partial=%g "
              "settlement=%g\n",
              run.config.faults.default_rate, run.config.faults.corrupt_rate,
              run.config.faults.partial_rate,
              run.config.faults.settlement_failure_rate);
  std::printf("rounds:         %zu of %" PRId64 "\n", run.rounds.size(),
              run.config.num_rounds);
  std::printf("snapshots:      %zu", run.snapshot_rounds.size());
  if (!run.snapshot_rounds.empty()) {
    std::printf(" (last after round %" PRId64 ")",
                run.snapshot_rounds.back());
  }
  std::printf("\n");
  std::printf("sealed:         %s%s\n", run.sealed ? "yes" : "no",
              run.torn_tail ? " (torn tail absorbed)" : "");
  return 0;
}

int Verify(const std::string& path) {
  auto recorded = persist::LoadRecordedRun(path);
  if (!recorded.ok()) return Fail(recorded.status());
  auto verified = persist::VerifyReplay(recorded.value());
  if (!verified.ok()) return Fail(verified.status());
  std::printf("verified %" PRId64 " rounds of %s bit-for-bit\n",
              verified.value().rounds_verified, path.c_str());
  return 0;
}

int ExportCsv(const std::string& log_path, const std::string& csv_path) {
  auto recorded =
      persist::LoadRecordedRun(log_path, /*allow_torn_tail=*/true);
  if (!recorded.ok()) return Fail(recorded.status());
  util::CsvTable table;
  table.header = {"round", "initial_exploration", "selected",
                  "consumer_price", "collection_price", "total_time",
                  "consumer_profit", "platform_profit", "seller_profit_total",
                  "expected_quality_revenue", "observed_quality_revenue",
                  "degraded", "voided", "num_faults", "faults"};
  for (const market::RoundReport& report : recorded.value().rounds) {
    std::vector<std::string> ids;
    for (int i : report.selected) ids.push_back(std::to_string(i));
    util::CsvRow row{std::to_string(report.round),
                     report.initial_exploration ? "1" : "0",
                     util::Join(ids, '+')};
    for (double value :
         {report.consumer_price, report.collection_price, report.total_time,
          report.consumer_profit, report.platform_profit,
          report.seller_profit_total, report.expected_quality_revenue,
          report.observed_quality_revenue}) {
      row.push_back(util::FormatDouble(value, 9));
    }
    row.push_back(report.degraded ? "1" : "0");
    row.push_back(report.voided ? "1" : "0");
    row.push_back(std::to_string(report.faults.size()));
    row.push_back(market::EncodeFaultSummary(report.faults));
    table.rows.push_back(std::move(row));
  }
  util::Status written = util::WriteCsvFile(csv_path, table);
  if (!written.ok()) return Fail(written);
  std::printf("wrote %zu rows to %s\n", table.rows.size(),
              csv_path.c_str());
  return 0;
}

int Resume(const std::string& log_path, const std::string& snapshot_path) {
  auto recorded =
      persist::LoadRecordedRun(log_path, /*allow_torn_tail=*/true);
  if (!recorded.ok()) return Fail(recorded.status());
  auto snapshot = persist::ReadSnapshotFile(snapshot_path);
  if (!snapshot.ok()) return Fail(snapshot.status());
  auto resumed =
      persist::ResumeFromSnapshot(recorded.value(), snapshot.value());
  if (!resumed.ok()) return Fail(resumed.status());
  std::printf("restored snapshot (round %" PRId64
              "), tail-replayed through round %" PRId64 "\n",
              resumed.value().snapshot_round, resumed.value().resumed_round);
  // Finish the rest of the campaign live, exiting cleanly on SIGINT or
  // SIGTERM (the rounds already settled stay reported).
  std::int64_t live_rounds = 0;
  bool interrupted = false;
  while (resumed.value().run->engine().current_round() <
         recorded.value().config.num_rounds) {
    if (util::ShutdownRequested()) {
      interrupted = true;
      break;
    }
    auto report = resumed.value().run->RunRound();
    if (!report.ok()) {
      if (resumed.value().run->engine().budget_exhausted() &&
          report.status().code() == util::StatusCode::kFailedPrecondition) {
        break;
      }
      return Fail(report.status());
    }
    ++live_rounds;
  }
  std::printf("ran %" PRId64 " further rounds live (campaign at round %"
              PRId64 " of %" PRId64 ")%s\n",
              live_rounds, resumed.value().run->engine().current_round(),
              recorded.value().config.num_rounds,
              interrupted ? " — interrupted" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  cdt::util::InstallShutdownHandlers();
  const std::string command = argv[1];
  if (command == "inspect") return Inspect(argv[2]);
  if (command == "verify") return Verify(argv[2]);
  if (command == "export-csv") {
    if (argc < 4) return Usage();
    return ExportCsv(argv[2], argv[3]);
  }
  if (command == "resume") {
    if (argc < 4) return Usage();
    return Resume(argv[2], argv[3]);
  }
  return Usage();
}
