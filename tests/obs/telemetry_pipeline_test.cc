// End-to-end telemetry tests over the real trading pipeline: runtime
// enablement must never perturb the economics (bit-identical reports), and
// an armed run must populate the span tracer and the metric catalogue that
// docs/OBSERVABILITY.md promises.

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cmab_hs.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace cdt {
namespace obs {
namespace {

core::MechanismConfig SmallConfig(bool with_faults) {
  core::MechanismConfig config;
  config.num_sellers = 6;
  config.num_selected = 2;
  config.num_pois = 3;
  config.num_rounds = 40;
  config.omega = 100.0;
  config.seed = 20210419;
  if (with_faults) {
    config.faults.default_rate = 0.2;
    config.faults.partial_rate = 0.1;
    config.faults.corrupt_rate = 0.05;
    config.faults.settlement_failure_rate = 0.1;
  }
  return config;
}

/// The full economic outcome of a run, flattened for exact comparison.
std::vector<double> RunEconomics(const core::MechanismConfig& config) {
  auto run = core::CmabHs::Create(config);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::vector<double> out;
  util::Status status =
      run.value()->RunAll([&](const market::RoundReport& r) {
        out.push_back(static_cast<double>(r.round));
        out.push_back(r.consumer_price);
        out.push_back(r.collection_price);
        out.push_back(r.total_time);
        out.push_back(r.consumer_profit);
        out.push_back(r.platform_profit);
        out.push_back(r.seller_profit_total);
        out.push_back(r.expected_quality_revenue);
        out.push_back(r.observed_quality_revenue);
        out.push_back(r.degraded ? 1.0 : 0.0);
        out.push_back(r.voided ? 1.0 : 0.0);
        for (int s : r.selected) out.push_back(static_cast<double>(s));
        for (double t : r.tau) out.push_back(t);
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

class TelemetryPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetForTesting(); }
  void TearDown() override { ResetForTesting(); }
};

TEST_F(TelemetryPipelineTest, EnablingTelemetryIsBitIdenticalEconomics) {
  std::vector<double> disabled = RunEconomics(SmallConfig(true));
  Enable();
  std::vector<double> enabled = RunEconomics(SmallConfig(true));
  Disable();
  ASSERT_EQ(disabled.size(), enabled.size());
  // Bit-level equality, not epsilon equality: telemetry must not touch a
  // single FP operation of the pipeline.
  EXPECT_EQ(0, std::memcmp(disabled.data(), enabled.data(),
                           disabled.size() * sizeof(double)));
}

#if CDT_TELEMETRY

TEST_F(TelemetryPipelineTest, ArmedRunRecordsNestedSpans) {
  Enable();
  RunEconomics(SmallConfig(true));
  Disable();
  std::vector<SpanEvent> spans = tracer().Snapshot();
  ASSERT_FALSE(spans.empty());
  std::set<std::string> names;
  for (const SpanEvent& s : spans) names.insert(s.name);
  for (const char* required :
       {"round", "bandit.select", "game.solve", "game.stage1.consumer_price",
        "game.stage2.platform_price", "game.stage3.seller_times",
        "engine.settlement", "engine.collect"}) {
    EXPECT_TRUE(names.count(required)) << "missing span " << required;
  }
  // Nesting: every non-round span lies inside some "round" span on the
  // same thread — that containment is what Perfetto renders as a tree.
  for (const SpanEvent& s : spans) {
    if (std::string(s.name) == "round") continue;
    bool contained = false;
    for (const SpanEvent& r : spans) {
      if (std::string(r.name) == "round" && r.tid == s.tid &&
          r.start_ns <= s.start_ns && s.end_ns <= r.end_ns) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << s.name << " not nested in any round span";
  }
}

TEST_F(TelemetryPipelineTest, ArmedRunPopulatesTheMetricCatalogue) {
  core::MechanismConfig config = SmallConfig(true);
  Enable();
  RunEconomics(config);
  Disable();

  std::vector<MetricsRegistry::MetricSnapshot> all = registry().Collect();
  std::set<std::string> names;
  for (const auto& m : all) names.insert(m.name);
  for (const char* required :
       {"cdt_rounds_total", "cdt_rounds_exploration_total",
        "cdt_rounds_degraded_total", "cdt_rounds_voided_total",
        "cdt_faults_total", "cdt_settlement_retries_total",
        "cdt_regret", "cdt_profit_cumulative", "cdt_ledger_consumer_outflow",
        "cdt_ledger_seller_inflow", "cdt_breaker_open_sellers",
        "cdt_bandit_picks_total", "cdt_bandit_exploration_ratio",
        "cdt_round_latency_seconds", "cdt_bandit_select_seconds",
        "cdt_engine_collect_seconds", "cdt_stage_solve_seconds"}) {
    EXPECT_TRUE(names.count(required)) << "missing metric " << required;
  }

  EXPECT_DOUBLE_EQ(
      registry().GetCounter("cdt_rounds_total", "")->value(),
      static_cast<double>(config.num_rounds));
  EXPECT_DOUBLE_EQ(
      registry().GetCounter("cdt_rounds_exploration_total", "")->value(),
      1.0);
  Histogram* latency = registry().GetHistogram(
      "cdt_round_latency_seconds", "", DefaultLatencyBuckets());
  EXPECT_EQ(latency->count(),
            static_cast<std::uint64_t>(config.num_rounds));
  EXPECT_GT(
      registry().GetGauge("cdt_ledger_consumer_outflow", "")->value(), 0.0);
  double ratio =
      registry().GetGauge("cdt_bandit_exploration_ratio", "")->value();
  EXPECT_GE(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);

  // The exports of a real run must be non-empty and structurally sane.
  std::string prom = PrometheusText(registry());
  EXPECT_NE(prom.find("# TYPE cdt_rounds_total counter"), std::string::npos);
  EXPECT_NE(prom.find("cdt_round_latency_seconds_bucket"),
            std::string::npos);
  std::string jsonl = MetricsJsonl(registry());
  EXPECT_NE(jsonl.find("\"name\":\"cdt_rounds_total\""), std::string::npos);
}

TEST_F(TelemetryPipelineTest, CollectHistogramTakesOneSamplePerSettledRound) {
  // A voided round (every seller defaulted, or settlement ran out of
  // retries) collects nothing, so it records no collect sample.
  core::MechanismConfig config = SmallConfig(true);
  config.num_rounds = 200;
  Enable();
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::uint64_t settled = 0;
  std::uint64_t voided = 0;
  ASSERT_TRUE(run.value()
                  ->RunAll([&](const market::RoundReport& r) {
                    ++(r.voided ? voided : settled);
                  })
                  .ok());
  Disable();
  EXPECT_GT(voided, 0u);
  Histogram* collect = registry().GetHistogram(
      "cdt_engine_collect_seconds", "", DefaultLatencyBuckets());
  EXPECT_EQ(collect->count(), settled);
}

TEST_F(TelemetryPipelineTest, DormantEngineTouchesNoGlobals) {
  // Telemetry compiled in but not armed: a full run must record no spans
  // and leave every metric at zero (the TelemetryObserver early-returns).
  RunEconomics(SmallConfig(false));
  EXPECT_EQ(tracer().total_recorded(), 0u);
  for (const auto& m : registry().Collect()) {
    if (m.type == MetricsRegistry::Type::kHistogram) {
      EXPECT_EQ(m.histogram.count, 0u) << m.name;
    } else {
      EXPECT_DOUBLE_EQ(m.value, 0.0) << m.name;
    }
  }
}

#endif  // CDT_TELEMETRY

}  // namespace
}  // namespace obs
}  // namespace cdt
