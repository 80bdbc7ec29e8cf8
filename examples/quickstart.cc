// Quickstart: the worked example of Sec. III-D — three sellers, four PoIs,
// a 10-round data trading job with K=2 sellers selected per round. Prints
// the whole trading process (selections, prices, sensing times, profits),
// mirroring Figs. 4-6 of the paper.
//
//   ./quickstart [--seed=<n>] [--rounds=<n>] [--faults=<rate>]
//                [--trace-out=<file>] [--metrics-out=<file>]
//
// --faults arms the fault-injection layer: sellers default (and, at a
// quarter of the rate each, corrupt reports, deliver partially, or hit
// settlement failures) while the invariant checker stays on, demonstrating
// graceful degradation end to end.
//
// --trace-out writes the run's spans as Chrome trace-event JSON (load in
// Perfetto / chrome://tracing); --metrics-out writes a Prometheus text
// snapshot plus a ".jsonl" sibling. Either flag arms the telemetry
// runtime; see docs/OBSERVABILITY.md.

#include <algorithm>
#include <cstdint>
#include <iostream>

#include "core/cmab_hs.h"
#include "market/faults.h"
#include "obs/exporters.h"
#include "obs/telemetry.h"
#include "util/config.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace cdt;

  auto flags = util::ConfigMap::FromArgs(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return 1;
  }

  core::MechanismConfig config;
  config.num_sellers = 3;       // M: sellers {1, 2, 3}
  config.num_selected = 2;      // K
  config.num_pois = 4;          // L: PoIs {1, 2, 3, 4}
  config.num_rounds = flags.value().GetInt("rounds", 10).value_or(10);
  config.collection_price_max = 5.0;  // example: p_max = 5
  config.consumer_price_max = 40.0;
  config.omega = 100.0;  // small job: scale the valuation down
  config.seed = static_cast<std::uint64_t>(
      flags.value().GetInt("seed", 20210419).value_or(20210419));

  const double fault_rate =
      flags.value().GetDouble("faults", 0.0).value_or(0.0);
  if (!(fault_rate >= 0.0) || fault_rate > 1.0) {
    std::cerr << "--faults must lie in [0, 1]\n";
    return 1;
  }
  config.faults.default_rate = fault_rate;
  // Side fault families ride along at a quarter of the rate, clamped so the
  // per-seller outcome rates still sum to <= 1.
  const double side = std::min(fault_rate / 4.0, (1.0 - fault_rate) / 2.0);
  config.faults.corrupt_rate = side;
  config.faults.partial_rate = side;
  config.faults.settlement_failure_rate = std::min(fault_rate / 4.0, 0.5);

  const std::string trace_out =
      flags.value().GetString("trace-out", "").value_or("");
  const std::string metrics_out =
      flags.value().GetString("metrics-out", "").value_or("");
  if (!trace_out.empty() || !metrics_out.empty()) obs::Enable();

  auto run = core::CmabHs::Create(config);
  if (!run.ok()) {
    std::cerr << "failed to build mechanism: " << run.status().ToString()
              << "\n";
    return 1;
  }

  std::cout << "CMAB-HS quickstart: M=" << config.num_sellers
            << " sellers, L=" << config.num_pois << " PoIs, K="
            << config.num_selected << ", N=" << config.num_rounds
            << " rounds\n\n";

  std::cout << "True expected qualities (unknown to the platform):\n";
  for (int i = 0; i < config.num_sellers; ++i) {
    std::cout << "  seller " << i + 1 << ": q = "
              << util::FormatDouble(run.value()->environment().nominal_quality(i), 3)
              << " (effective "
              << util::FormatDouble(
                     run.value()->environment().effective_quality(i), 3)
              << ")\n";
  }
  std::cout << "\n";

  util::TablePrinter table({"round", "selected", "p^J", "p", "tau",
                            "PoC", "PoP", "PoS(total)"});
  util::Status status = run.value()->RunAll([&](const market::RoundReport& r) {
    std::string selected;
    for (std::size_t j = 0; j < r.selected.size(); ++j) {
      if (j > 0) selected += ",";
      selected += std::to_string(r.selected[j] + 1);
    }
    std::string tau;
    for (std::size_t j = 0; j < r.tau.size(); ++j) {
      if (j > 0) tau += ",";
      tau += util::FormatDouble(r.tau[j], 2);
    }
    std::string tag;
    if (r.initial_exploration) tag += "[init] ";
    if (r.voided) {
      tag += "[void] ";
    } else if (r.degraded) {
      tag += "[degr] ";
    }
    table.AddRow({std::to_string(r.round), tag + selected,
                  util::FormatDouble(r.consumer_price, 3),
                  util::FormatDouble(r.collection_price, 3), tau,
                  util::FormatDouble(r.consumer_profit, 2),
                  util::FormatDouble(r.platform_profit, 2),
                  util::FormatDouble(r.seller_profit_total, 2)});
  });
  if (!status.ok()) {
    std::cerr << "run failed: " << status.ToString() << "\n";
    return 1;
  }
  table.Print(std::cout);

  const auto& metrics = run.value()->metrics();
  std::cout << "\nTotals after " << metrics.rounds() << " rounds:\n"
            << "  expected quality revenue: "
            << util::FormatDouble(metrics.expected_revenue(), 2) << "\n"
            << "  observed quality revenue: "
            << util::FormatDouble(metrics.observed_revenue(), 2) << "\n"
            << "  regret vs oracle:         "
            << util::FormatDouble(metrics.regret(), 2) << "\n";

  if (config.faults.any()) {
    const market::TradingEngine& engine = run.value()->engine();
    std::int64_t fault_events = 0;
    for (int kind = 0; kind < market::kNumFaultKinds; ++kind) {
      fault_events += engine.fault_count(static_cast<market::FaultKind>(kind));
    }
    std::cout << "\nFault injection (default rate "
              << util::FormatDouble(fault_rate, 2) << "):\n"
              << "  fault events:        " << fault_events
              << "\n"
              << "  seller defaults:     "
              << engine.fault_count(market::FaultKind::kSellerDefault) << "\n"
              << "  corrupted reports:   "
              << engine.fault_count(market::FaultKind::kCorruptedReport)
              << "\n"
              << "  partial deliveries:  "
              << engine.fault_count(market::FaultKind::kPartialDelivery)
              << "\n"
              << "  settlement failures: "
              << engine.fault_count(market::FaultKind::kSettlementFailure)
              << "\n"
              << "  quarantine drops:    "
              << engine.fault_count(market::FaultKind::kQuarantine) << "\n"
              << "  degraded rounds:     " << metrics.degraded_rounds()
              << "  (voided: " << metrics.voided_rounds() << ")\n";
    if (engine.invariant_checker() != nullptr) {
      std::cout << "  invariant violations: "
                << engine.invariant_checker()->violation_count() << "\n";
      if (engine.invariant_checker()->violation_count() != 0) return 1;
    }
  }

  if (!trace_out.empty()) {
    util::Status written = obs::WriteChromeTrace(obs::tracer(), trace_out);
    if (!written.ok()) {
      std::cerr << "trace export failed: " << written.ToString() << "\n";
      return 1;
    }
    std::cout << "\n[trace written to " << trace_out << "]\n";
  }
  if (!metrics_out.empty()) {
    util::Status written =
        obs::WritePrometheusText(obs::registry(), metrics_out);
    if (written.ok()) {
      written = obs::WriteMetricsJsonl(obs::registry(), metrics_out + ".jsonl");
    }
    if (!written.ok()) {
      std::cerr << "metrics export failed: " << written.ToString() << "\n";
      return 1;
    }
    std::cout << "[metrics written to " << metrics_out << " and "
              << metrics_out << ".jsonl]\n";
  }
  return 0;
}
