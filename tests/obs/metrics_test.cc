#include "obs/metrics.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace cdt {
namespace obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(CounterTest, AccumulatesAndIgnoresInvalid) {
  Counter c;
  c.Increment();
  c.Add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  c.Add(-1.0);   // negative: ignored (counters are monotone)
  c.Add(kNan);   // non-finite: ignored
  c.Add(kInf);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  c.Reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge g;
  g.Set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.Set(-7.0);  // gauges may go negative
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST(HistogramTest, InclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.Record(1.0);  // le=1 bucket (inclusive)
  h.Record(1.5);  // le=2
  h.Record(4.0);  // le=4 (inclusive)
  Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 0u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.5);
}

TEST(HistogramTest, ZeroAndNegativeLandInFirstBucket) {
  Histogram h({1.0, 2.0});
  h.Record(0.0);
  h.Record(-3.0);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, -3.0);
}

TEST(HistogramTest, AboveMaxBoundLandsInOverflowBucket) {
  Histogram h({1.0, 2.0});
  h.Record(2.0000001);
  h.Record(1e12);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.counts.back(), 2u);
  EXPECT_EQ(s.count, 2u);
}

TEST(HistogramTest, InfGuardRejectsNonFiniteSamples) {
  Histogram h({1.0});
  h.Record(kNan);
  h.Record(kInf);
  h.Record(-kInf);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.rejected(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);  // sum can never be poisoned
  h.Record(0.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.rejected(), 3u);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h({1.0});
  h.Record(0.5);
  h.Record(kNan);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.rejected(), 0u);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.counts[0], 0u);
  EXPECT_EQ(s.counts[1], 0u);
}

TEST(LogBucketsTest, GeometricWithExactEndpoints) {
  std::vector<double> b = LogBuckets(1e-3, 10.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-3);
  EXPECT_DOUBLE_EQ(b.back(), 10.0);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_LT(b[i - 1], b[i]);
    // Constant ratio between consecutive bounds.
    EXPECT_NEAR(b[i] / b[i - 1], b[1] / b[0], 1e-9);
  }
}

TEST(LogBucketsTest, DefaultLatencyBucketsSpanNanosToSeconds) {
  const std::vector<double>& b = DefaultLatencyBuckets();
  ASSERT_EQ(b.size(), 16u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-7);
  EXPECT_DOUBLE_EQ(b.back(), 10.0);
}

TEST(MetricsRegistryTest, SameNameAndLabelsShareTheHandle) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", "help");
  Counter* b = reg.GetCounter("x_total", "ignored on re-registration");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, LabelOrderIsNormalized) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total", "h", {{"a", "1"}, {"b", "2"}});
  Counter* b = reg.GetCounter("x_total", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
  Counter* c = reg.GetCounter("x_total", "h", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, CollectIsSortedAndTyped) {
  MetricsRegistry reg;
  reg.GetGauge("zz", "last")->Set(1.0);
  reg.GetCounter("aa", "first")->Add(2.0);
  reg.GetHistogram("mm", "middle", {1.0})->Record(0.5);
  std::vector<MetricsRegistry::MetricSnapshot> out = reg.Collect();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].name, "aa");
  EXPECT_EQ(out[0].type, MetricsRegistry::Type::kCounter);
  EXPECT_DOUBLE_EQ(out[0].value, 2.0);
  EXPECT_EQ(out[1].name, "mm");
  EXPECT_EQ(out[1].type, MetricsRegistry::Type::kHistogram);
  EXPECT_EQ(out[1].histogram.count, 1u);
  EXPECT_EQ(out[2].name, "zz");
  EXPECT_EQ(out[2].type, MetricsRegistry::Type::kGauge);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c_total", "h");
  Histogram* h = reg.GetHistogram("h_seconds", "h", {1.0});
  c->Add(5.0);
  h->Record(0.5);
  reg.Reset();
  EXPECT_DOUBLE_EQ(c->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.GetCounter("c_total", "h"), c);  // same handle survives
}

TEST(MetricsRegistryDeathTest, TypeCollisionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry reg;
  reg.GetCounter("dual", "h");
  EXPECT_DEATH(reg.GetGauge("dual", "h"), "");
}

}  // namespace
}  // namespace obs
}  // namespace cdt
