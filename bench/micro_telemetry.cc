// Micro-benchmark for the telemetry hot path, answering two questions:
//
//   1. What do the primitives cost? (dormant span, armed span, counter
//      add, histogram record, the enabled() guard itself)
//   2. What does telemetry do to a full trading round? BM_FullTradingRound
//      runs the paper-scale engine dormant vs armed; the armed/dormant
//      ratio is the end-to-end overhead the ISSUE bounds at 2%.
//
// Representative numbers (Release, GCC 12, one core; recorded in
// docs/OBSERVABILITY.md together with the micro_engine ON-vs-OFF pair):
//
//   BM_EnabledGuard              ~0.33 ns
//   BM_ScopedSpanDormant         ~0.94 ns
//   BM_ScopedSpanArmed           ~66 ns
//   BM_CounterAdd                ~12 ns
//   BM_HistogramRecord           ~19 ns
//   BM_FullTradingRound dormant  ~9.3 us   (vs 9.2 us with telemetry
//   BM_FullTradingRound armed    ~11.4 us   compiled out entirely)
//
// CI smoke: --benchmark_filter=FullTradingRound exercises both variants.
// BM_FullTradingRoundMillion repeats the pair at M=10⁶ (see below).

#include <benchmark/benchmark.h>

#include "core/cmab_hs.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace {

using namespace cdt;

void BM_EnabledGuard(benchmark::State& state) {
  obs::Disable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::enabled());
  }
}
BENCHMARK(BM_EnabledGuard);

void BM_ScopedSpanDormant(benchmark::State& state) {
  obs::ResetForTesting();  // telemetry disarmed
  for (auto _ : state) {
    CDT_SPAN("bench.dormant");
  }
}
BENCHMARK(BM_ScopedSpanDormant);

void BM_ScopedSpanArmed(benchmark::State& state) {
  obs::ResetForTesting();
  obs::Enable();
  for (auto _ : state) {
    CDT_SPAN("bench.armed");
  }
  obs::ResetForTesting();
}
BENCHMARK(BM_ScopedSpanArmed);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.Add(1.0);
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram hist(obs::DefaultLatencyBuckets());
  double v = 1e-6;
  for (auto _ : state) {
    hist.Record(v);
    v = v < 1.0 ? v * 1.5 : 1e-6;  // walk the buckets, defeat branch luck
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

// Full paper-scale trading round (M=300, L=10, K=10), telemetry dormant
// vs armed. state.range(0): 0 = dormant, 1 = armed. The pair quantifies
// the end-to-end overhead bound from the ISSUE (< 2%).
void BM_FullTradingRound(benchmark::State& state) {
  obs::ResetForTesting();
  if (state.range(0) == 1) obs::Enable();
  core::MechanismConfig config;
  config.num_selected = 10;
  config.num_rounds = 1 << 30;  // never exhausts within the benchmark
  config.check_invariants = false;
  auto run = core::CmabHs::Create(config);
  core::CmabHs& engine = *run.value();  // hoisted: keep value() untimed
  (void)engine.RunRound();  // initial exploration outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RunRound());
  }
  obs::ResetForTesting();
}
BENCHMARK(BM_FullTradingRound)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("armed")
    ->Unit(benchmark::kMicrosecond);

// The same pair at M=10⁶ sellers, K=1000 (K ~ sqrt(M)) and the paper's
// K=10, L=10. Armed telemetry still makes one O(M) pass per round (the
// explore/exploit split's TopKByMeanInto), so at this M the armed row
// shows what that pass costs against a round's O(K) work. Rounds 1 and 2
// run untimed: the select-all exploration round makes M observations, and
// the first selection after it costs ~0.1 s at M=10⁶, which would swamp
// the mean of a few hundred rounds.
void BM_FullTradingRoundMillion(benchmark::State& state) {
  obs::ResetForTesting();
  core::MechanismConfig config;
  config.num_sellers = static_cast<int>(state.range(0));
  config.num_selected = static_cast<int>(state.range(1));
  config.num_rounds = 1 << 30;
  config.check_invariants = false;
  auto run = core::CmabHs::Create(config);
  core::CmabHs& engine = *run.value();
  (void)engine.RunRound();  // round 1: select-all initial exploration
  (void)engine.RunRound();  // round 2: the first selection after it
  if (state.range(2) == 1) obs::Enable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.RunRound());
  }
  obs::ResetForTesting();
}
BENCHMARK(BM_FullTradingRoundMillion)
    ->Args({1000000, 1000, 0})
    ->Args({1000000, 1000, 1})
    ->Iterations(50)
    ->ArgNames({"m", "k", "armed"})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FullTradingRoundMillion)
    ->Args({1000000, 10, 0})
    ->Args({1000000, 10, 1})
    ->Iterations(200)
    ->ArgNames({"m", "k", "armed"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
