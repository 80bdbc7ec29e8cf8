// Micro-benchmarks for the Stackelberg game: closed-form backward
// induction, the exact piecewise stage-2 best response, stage 1 off the
// interior regime (the regime walk), and the Def.-13 equilibrium
// verification. The *Reference rows run the same queries on the naive
// per-segment sweep (tests/support/reference_stackelberg.h; for stage 1,
// the heuristic search the walk replaced), so each optimized/reference
// ratio comes from one run on one host.

#include <vector>

#include <benchmark/benchmark.h>

#include "game/equilibrium.h"
#include "game/numeric.h"
#include "game/stackelberg.h"
#include "stats/rng.h"
#include "support/reference_stackelberg.h"

namespace {

using namespace cdt;

game::GameConfig MakeConfig(int k, std::uint64_t seed = 1) {
  stats::Xoshiro256 rng(seed);
  game::GameConfig config;
  for (int i = 0; i < k; ++i) {
    config.sellers.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
    config.qualities.push_back(rng.NextDouble(0.1, 1.0));
  }
  config.platform = {0.1, 1.0};
  config.valuation = {1000.0};
  config.consumer_price_bounds = {0.01, 1000.0};
  config.collection_price_bounds = {0.01, 1000.0};
  return config;
}

void BM_SolverCreate(benchmark::State& state) {
  game::GameConfig config = MakeConfig(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::StackelbergSolver::Create(config));
  }
}
BENCHMARK(BM_SolverCreate)->Arg(10)->Arg(60);

void BM_Solve(benchmark::State& state) {
  auto solver =
      game::StackelbergSolver::Create(MakeConfig(static_cast<int>(state.range(0))));
  game::StackelbergSolver& hs = solver.value();  // hoisted: value() untimed
  for (auto _ : state) {
    benchmark::DoNotOptimize(hs.Solve());
  }
}
BENCHMARK(BM_Solve)->Arg(10)->Arg(60);

void BM_PlatformBestPriceExactSweep(benchmark::State& state) {
  auto solver =
      game::StackelbergSolver::Create(MakeConfig(static_cast<int>(state.range(0))));
  game::StackelbergSolver& hs = solver.value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hs.PlatformBestPrice(12.0));
  }
}
BENCHMARK(BM_PlatformBestPriceExactSweep)->Arg(10)->Arg(60);

// Consumer prices cycled through by the stage-2 rows: a grid over the
// consumer box, so every envelope piece is visited.
std::vector<double> QueryGrid(const game::GameConfig& config) {
  std::vector<double> xs;
  const util::Interval& box = config.consumer_price_bounds;
  for (int i = 0; i < 256; ++i) xs.push_back(box.lo + box.width() * i / 255.0);
  return xs;
}

template <typename Solver>
void RunPlatformBestPrice(benchmark::State& state, const Solver& solver,
                          const std::vector<double>& xs) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.PlatformBestPrice(xs[i]));
    i = (i + 1) % xs.size();
  }
}

void BM_PlatformBestPrice(benchmark::State& state) {
  game::GameConfig config = MakeConfig(static_cast<int>(state.range(0)));
  auto solver = game::StackelbergSolver::Create(config);
  RunPlatformBestPrice(state, solver.value(), QueryGrid(config));
}
BENCHMARK(BM_PlatformBestPrice)->Arg(316)->Arg(1000);

void BM_PlatformBestPriceReference(benchmark::State& state) {
  game::GameConfig config = MakeConfig(static_cast<int>(state.range(0)));
  testsupport::ReferenceStackelberg reference(config);
  RunPlatformBestPrice(state, reference, QueryGrid(config));
}
BENCHMARK(BM_PlatformBestPriceReference)->Arg(316)->Arg(1000);

// Stage 1 moved off Theorem 16's point by capping the collection price
// below the interior optimum.
game::GameConfig FallbackConfig(int k) {
  game::GameConfig config = MakeConfig(k);
  config.collection_price_bounds = {0.01, 1.0};
  return config;
}

void BM_ConsumerBestPriceFallback(benchmark::State& state) {
  auto solver = game::StackelbergSolver::Create(
      FallbackConfig(static_cast<int>(state.range(0))));
  game::StackelbergSolver& hs = solver.value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hs.ConsumerBestPrice());
  }
}
BENCHMARK(BM_ConsumerBestPriceFallback)->Arg(10)->Arg(316)->Arg(1000);

void BM_ConsumerBestPriceFallbackReference(benchmark::State& state) {
  testsupport::ReferenceStackelberg reference(
      FallbackConfig(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference.ConsumerBestPrice());
  }
}
BENCHMARK(BM_ConsumerBestPriceFallbackReference)
    ->Arg(10)
    ->Arg(316)
    ->Arg(1000);

void BM_EquilibriumCheck(benchmark::State& state) {
  auto solver = game::StackelbergSolver::Create(MakeConfig(10));
  game::StackelbergSolver& hs = solver.value();
  game::StrategyProfile profile = hs.Solve();
  for (auto _ : state) {
    benchmark::DoNotOptimize(game::CheckEquilibrium(hs, profile));
  }
}
BENCHMARK(BM_EquilibriumCheck);

}  // namespace

BENCHMARK_MAIN();
