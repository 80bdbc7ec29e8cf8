// Micro-benchmarks for the bandit substrate: UCB index computation, top-K
// selection at paper scale (M=300) and in the large-M regime (M up to 1e6,
// K ~ sqrt(M)), estimator updates and environment observation draws.

#include <cmath>

#include <benchmark/benchmark.h>

#include "bandit/arm.h"
#include "bandit/cucb_policy.h"
#include "bandit/environment.h"
#include "stats/rng.h"
#include "support/reference_cucb.h"

namespace {

using namespace cdt;

bandit::EstimatorBank MakeWarmBank(int arms) {
  auto bank = bandit::EstimatorBank::Create(arms, 11.0);
  std::vector<double> batch(10, 0.5);
  for (int i = 0; i < arms; ++i) {
    (void)bank.value().Update(i, batch);
  }
  return std::move(bank).value();
}

// Warm bank with distinct per-arm means, so large-M selection benchmarks
// run on realistic (tie-free) estimate distributions.
bandit::EstimatorBank MakeRandomWarmBank(int arms, double exploration) {
  auto bank = bandit::EstimatorBank::Create(arms, exploration);
  stats::Xoshiro256 rng(99);
  std::vector<double> batch(4);
  for (int i = 0; i < arms; ++i) {
    for (double& q : batch) q = rng.NextDouble();
    (void)bank.value().Update(i, batch);
  }
  return std::move(bank).value();
}

// K ~ sqrt(M): 1e4 -> 100, 1e5 -> 316, 1e6 -> 1000.
int KForM(int m) { return static_cast<int>(std::lround(std::sqrt(m))); }

void BM_EstimatorUpdate(benchmark::State& state) {
  bandit::EstimatorBank bank = MakeWarmBank(300);
  std::vector<double> batch(10, 0.7);
  int arm = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.Update(arm, batch));
    arm = (arm + 1) % 300;
  }
}
BENCHMARK(BM_EstimatorUpdate);

void BM_UcbValues(benchmark::State& state) {
  bandit::EstimatorBank bank = MakeWarmBank(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.UcbValues());
  }
}
BENCHMARK(BM_UcbValues)->Arg(50)->Arg(300);

void BM_TopKByUcb(benchmark::State& state) {
  bandit::EstimatorBank bank = MakeWarmBank(300);
  int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.TopKByUcb(k));
  }
}
BENCHMARK(BM_TopKByUcb)->Arg(10)->Arg(60);

void BM_CucbSelectRound(benchmark::State& state) {
  bandit::CucbOptions options;
  options.num_sellers = 300;
  options.num_selected = static_cast<int>(state.range(0));
  auto policy = bandit::CucbPolicy::Create(options);
  bandit::CucbPolicy& cucb = policy.value();  // hoisted: keep value() untimed
  std::vector<double> batch(10, 0.5);
  std::vector<int> all(300);
  std::vector<std::vector<double>> obs(300, batch);
  for (int i = 0; i < 300; ++i) all[i] = i;
  (void)cucb.Observe(all, obs);
  std::int64_t round = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cucb.SelectRound(round++));
  }
}
BENCHMARK(BM_CucbSelectRound)->Arg(10)->Arg(60);

// Allocation-free variant: the engine's hot path reuses one selection
// buffer across rounds, so this is the number RunRound actually sees.
void BM_CucbSelectRoundInto(benchmark::State& state) {
  bandit::CucbOptions options;
  options.num_sellers = 300;
  options.num_selected = static_cast<int>(state.range(0));
  auto policy = bandit::CucbPolicy::Create(options);
  bandit::CucbPolicy& cucb = policy.value();
  std::vector<double> batch(10, 0.5);
  std::vector<int> all(300);
  std::vector<std::vector<double>> obs(300, batch);
  for (int i = 0; i < 300; ++i) all[i] = i;
  (void)cucb.Observe(all, obs);
  std::vector<int> selected;
  std::int64_t round = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cucb.SelectRoundInto(round++, &selected));
  }
}
BENCHMARK(BM_CucbSelectRoundInto)->Arg(10)->Arg(60);

// --- large-M regime (see docs/PERFORMANCE.md) ---

// Branch-free SoA scan: one fused mean + sqrt(scaled_log / n) pass over
// the column arrays into a reused buffer.
void BM_UcbScan(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  bandit::EstimatorBank bank = MakeRandomWarmBank(m, 11.0);
  std::vector<double> ucb;
  for (auto _ : state) {
    bank.UcbValuesInto(&ucb);
    benchmark::DoNotOptimize(ucb.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_UcbScan)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// The pre-SoA scan (per-arm branch + uint64 conversion) of the test
// oracle, the baseline the branch-free pass above is measured against.
void BM_UcbScanReference(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  bandit::EstimatorBank bank = MakeRandomWarmBank(m, 11.0);
  std::vector<double> ucb;
  for (auto _ : state) {
    testsupport::UcbValuesReferenceInto(bank, &ucb);
    benchmark::DoNotOptimize(ucb.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_UcbScanReference)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// Full-rescan top-K over the scanned values (the reference selection's
// second half): bounded heap-select at K ~ sqrt(M).
void BM_TopKByUcbLargeM(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  bandit::EstimatorBank bank = MakeRandomWarmBank(m, 11.0);
  std::vector<double> ucb;
  std::vector<int> selected;
  for (auto _ : state) {
    bank.TopKByUcbInto(KForM(m), &ucb, &selected);
    benchmark::DoNotOptimize(selected.data());
  }
}
BENCHMARK(BM_TopKByUcbLargeM)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// Round 1 of Algorithm 1: every arm observed once, distinct means.
template <typename Policy>
void ObserveEveryArm(Policy& cucb, int m) {
  stats::Xoshiro256 rng(99);
  std::vector<int> all(static_cast<std::size_t>(m));
  std::vector<std::vector<double>> warm(static_cast<std::size_t>(m),
                                        std::vector<double>(4));
  for (int i = 0; i < m; ++i) {
    all[static_cast<std::size_t>(i)] = i;
    for (double& q : warm[static_cast<std::size_t>(i)]) q = rng.NextDouble();
  }
  (void)cucb.Observe(all, warm);
}

// Steady-state selection round: select K, observe those K (the bank
// update + selector invalidation that every trading round performs).
// CucbPolicy files ~K arrivals and merges about K entries; the reference
// oracle (testsupport::ReferenceCucbPolicy) rescans all M arms every round.
template <typename Policy>
void SelectRoundLargeM(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  bandit::CucbOptions options;
  options.num_sellers = m;
  options.num_selected = k;
  auto policy = Policy::Create(options);
  Policy& cucb = policy.value();  // hoisted: keep value() untimed
  ObserveEveryArm(cucb, m);

  std::vector<int> selected;
  std::vector<std::vector<double>> obs(static_cast<std::size_t>(k),
                                       std::vector<double>(4, 0.5));
  std::int64_t round = 2;
  for (auto _ : state) {
    (void)cucb.SelectRoundInto(round++, &selected);
    benchmark::DoNotOptimize(selected.data());
    (void)cucb.Observe(selected, obs);
  }
}
void BM_LazySelectRound(benchmark::State& state) {
  SelectRoundLargeM<bandit::CucbPolicy>(state);
}
void BM_ReferenceSelectRound(benchmark::State& state) {
  SelectRoundLargeM<testsupport::ReferenceCucbPolicy>(state);
}
// The paper's scale (M = 300, K = 10), then two K regimes per large M: the
// paper's coalition size (K = 10) and the stress scaling K ~ sqrt(M) used
// throughout docs/PERFORMANCE.md.
BENCHMARK(BM_LazySelectRound)
    ->Args({300, 10})
    ->Args({10000, 10})
    ->Args({10000, 100})
    ->Args({100000, 10})
    ->Args({100000, 316})
    ->Args({1000000, 10})
    ->Args({1000000, 1000})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReferenceSelectRound)
    ->Args({300, 10})
    ->Args({10000, 10})
    ->Args({10000, 100})
    ->Args({100000, 10})
    ->Args({100000, 316})
    ->Args({1000000, 10})
    ->Args({1000000, 1000})
    ->Unit(benchmark::kMicrosecond);

// The first selection after a snapshot Restore (recovery): the bank
// changed out of band, so CucbPolicy's selector rebuilds from it. The
// state is 20 rounds past the select-all round; Restore itself is untimed.
template <typename Policy>
void SelectAfterRestore(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  int k = static_cast<int>(state.range(1));
  bandit::CucbOptions options;
  options.num_sellers = m;
  options.num_selected = k;
  auto policy = Policy::Create(options);
  Policy& cucb = policy.value();
  ObserveEveryArm(cucb, m);
  std::vector<int> selected;
  std::vector<std::vector<double>> obs(static_cast<std::size_t>(k),
                                       std::vector<double>(4, 0.5));
  for (std::int64_t round = 2; round <= 20; ++round) {
    (void)cucb.SelectRoundInto(round, &selected);
    (void)cucb.Observe(selected, obs);
  }
  bandit::EstimatorBank& bank = *cucb.mutable_estimator();
  std::vector<bandit::ArmState> arms(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) arms[static_cast<std::size_t>(i)] = bank.arm(i);
  const std::uint64_t total = bank.total_observations();
  for (auto _ : state) {
    state.PauseTiming();
    (void)bank.Restore(arms, total);
    state.ResumeTiming();
    (void)cucb.SelectRoundInto(21, &selected);
    benchmark::DoNotOptimize(selected.data());
  }
}
void BM_LazySelectAfterRestore(benchmark::State& state) {
  SelectAfterRestore<bandit::CucbPolicy>(state);
}
void BM_ReferenceSelectAfterRestore(benchmark::State& state) {
  SelectAfterRestore<testsupport::ReferenceCucbPolicy>(state);
}
BENCHMARK(BM_LazySelectAfterRestore)
    ->Args({100000, 316})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReferenceSelectAfterRestore)
    ->Args({100000, 316})
    ->Unit(benchmark::kMicrosecond);

void BM_EnvironmentObserve(benchmark::State& state) {
  bandit::EnvironmentConfig config;
  config.num_sellers = 300;
  config.num_pois = 10;
  auto env = bandit::QualityEnvironment::Create(config);
  bandit::QualityEnvironment& environment = env.value();
  int seller = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(environment.ObserveSeller(seller));
    seller = (seller + 1) % 300;
  }
}
BENCHMARK(BM_EnvironmentObserve);

}  // namespace

BENCHMARK_MAIN();
