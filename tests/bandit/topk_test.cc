// Incremental top-K selector and heap-select correctness: both must
// reproduce the full-rescan oracle (iota + partial_sort over a full UCB
// scan, kept in tests/support) bit for bit under adversarial update
// patterns — exact ties, rounding collisions between distinct means, mass
// invalidation, cold-start arms, restored-from-snapshot banks and updates
// made behind the selector's back. The selector suite keeps the name of
// the BM_LazySelectRound bench family that times it.

#include "bandit/topk.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bandit/arm.h"
#include "bandit/cucb_policy.h"
#include "bandit/environment.h"
#include "stats/rng.h"
#include "support/reference_cucb.h"

namespace cdt {
namespace bandit {
namespace {

using testsupport::ReferenceCucbPolicy;
using testsupport::TopKIndicesPartialSortInto;
using testsupport::UcbValuesReferenceInto;

std::vector<int> ReferenceTopK(const EstimatorBank& bank, int k) {
  std::vector<double> ucb;
  UcbValuesReferenceInto(bank, &ucb);
  std::vector<int> out;
  TopKIndicesPartialSortInto(ucb, k, &out);
  return out;
}

EstimatorBank MakeBank(int m, double exploration) {
  auto bank = EstimatorBank::Create(m, exploration);
  EXPECT_TRUE(bank.ok());
  return std::move(bank).value();
}

// Quantized observation batch: coarse values manufacture exact mean ties.
std::vector<double> QuantizedBatch(stats::Xoshiro256& rng, int len,
                                   int levels) {
  std::vector<double> batch(static_cast<std::size_t>(len));
  for (double& q : batch) {
    q = std::floor(rng.NextDouble() * levels) / levels;
  }
  return batch;
}

TEST(TopKIndicesIntoTest, MatchesPartialSortOnRandomInputs) {
  stats::Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    int m = 1 + static_cast<int>(rng.NextDouble() * 400);
    std::vector<double> values(static_cast<std::size_t>(m));
    for (double& v : values) {
      // Quantized so duplicates are common; sprinkle in ±inf sentinels
      // (cold arms and availability masks use them).
      double u = rng.NextDouble();
      if (u < 0.05) {
        v = std::numeric_limits<double>::infinity();
      } else if (u < 0.1) {
        v = -std::numeric_limits<double>::infinity();
      } else {
        v = std::floor(u * 16.0) / 16.0;
      }
    }
    int k = static_cast<int>(rng.NextDouble() * (m + 4));
    std::vector<int> heap_select, partial_sort;
    TopKIndicesInto(values, k, &heap_select);
    TopKIndicesPartialSortInto(values, k, &partial_sort);
    EXPECT_EQ(heap_select, partial_sort)
        << "m=" << m << " k=" << k << " trial=" << trial;
  }
}

TEST(TopKIndicesIntoTest, HandlesEdgeSizes) {
  std::vector<double> v{1.0, 2.0};
  std::vector<int> out{9, 9, 9};
  TopKIndicesInto(v, 0, &out);
  EXPECT_TRUE(out.empty());
  TopKIndicesInto(v, 5, &out);
  EXPECT_EQ(out, (std::vector<int>{1, 0}));
  std::vector<double> one{0.5};
  TopKIndicesInto(one, 1, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
}

std::vector<ArmState> CaptureArms(const EstimatorBank& bank) {
  std::vector<ArmState> arms(static_cast<std::size_t>(bank.num_arms()));
  for (int i = 0; i < bank.num_arms(); ++i) {
    arms[static_cast<std::size_t>(i)] = bank.arm(i);
  }
  return arms;
}

// One input of the selector-vs-oracle sweep. The quantized inputs are
// Algorithm 1's select/observe loop with coarse qualities, so exact ties
// are everywhere; the others interleave, round by round, the update
// patterns the selector's exactness argument has to survive.
struct SweepInput {
  const char* name;
  std::uint64_t seed;
  int m, k, rounds;
  /// Eq. (19)'s constant; 0 means the paper's K+1. A small one lets the
  /// means, not the bonuses, order the arms, so a jump in quality moves
  /// an arm up.
  double exploration;
  /// Arms 4j and 4j+1 share every batch while their states agree, so their
  /// UCB values tie exactly; with K odd such a pair regularly straddles
  /// the K-th place, a tie across the boundary only the index breaks.
  bool twins;
  /// Every sample of arms 14j, 14j+1 is 0 and of 14j+2, 14j+3 is 1:
  /// means pinned at the quality floor and ceiling.
  bool pinned;
  /// Per-round chance of a mid-run Restore: either back to a state saved
  /// earlier in the run, or a same-total swap of the K-th winner with the
  /// worst arm (only the bank's update sequence reveals it).
  double restore_rate;
  /// Per-round chance of updating a random 1/8 up to all of the arms at
  /// once. Half of them jump to the quality ceiling with a batch as long
  /// as their history, so arms from deep in their groups break into the
  /// top K.
  double mass_rate;
};

TEST(LazyTopKSelectorTest, MatchesReferenceAcrossRounds) {
  const SweepInput inputs[] = {
      {"plain", 42, 200, 10, 500, 0.0, false, false, 0.0, 0.0},
      {"quantized150", 43, 150, 7, 600, 0.0, false, false, 0.0, 0.0},
      {"quantized300", 44, 300, 10, 600, 0.0, false, false, 0.0, 0.0},
      {"quantized1e4", 45, 10000, 100, 300, 0.0, false, false, 0.0, 0.0},
      {"ties+pinned", 7, 1000, 11, 400, 0.0, true, true, 0.0, 0.0},
      {"restores", 8, 1500, 9, 400, 0.0, true, false, 0.1, 0.0},
      {"mass", 9, 1200, 8, 300, 0.05, false, false, 0.0, 0.1},
      {"everything", 10, 2000, 13, 600, 0.05, true, true, 0.05, 0.05},
  };
  const int batch_len = 5;
  for (const SweepInput& input : inputs) {
    SCOPED_TRACE(input.name);
    const int m = input.m, k = input.k;
    EstimatorBank bank =
        MakeBank(m, input.exploration > 0.0 ? input.exploration
                                            : static_cast<double>(k + 1));
    GroupedTopKSelector selector;
    stats::Xoshiro256 rng(input.seed);  // observations
    stats::Xoshiro256 ops(input.seed ^ 0xA5A5A5A5ULL);  // op schedule
    std::vector<int> lazy;
    std::vector<std::uint8_t> touched(static_cast<std::size_t>(m));
    std::vector<ArmState> saved;
    std::uint64_t saved_total = 0;
    int ties = 0, restores = 0, swaps = 0, masses = 0, pinned_picks = 0;

    auto pin = [&](int arm) {  // -1 free, else the pinned sample value
      if (!input.pinned) return -1;
      int group = (arm / 2) % 7;
      return group == 0 ? 0 : group == 1 ? 1 : -1;
    };
    auto observe = [&](int arm, bool ceiling) -> ::testing::AssertionResult {
      if (touched[static_cast<std::size_t>(arm)]) {
        return ::testing::AssertionSuccess();  // synced as a twin
      }
      std::vector<double> batch =
          pin(arm) >= 0 ? std::vector<double>(batch_len, double(pin(arm)))
          : ceiling     ? std::vector<double>(
                          std::max<std::size_t>(batch_len,
                                                bank.arm(arm).observations),
                          1.0)
                        : QuantizedBatch(rng, batch_len, 8);
      const int twin = arm ^ 1;
      const bool sync = input.twins && (arm / 2) % 2 == 0 && twin < m &&
                        bank.arm(twin) == bank.arm(arm);
      for (int a : {arm, twin}) {
        if (a != arm && !sync) continue;
        if (!bank.Update(a, batch).ok()) {
          return ::testing::AssertionFailure() << "update of arm " << a;
        }
        selector.Invalidate(bank, a);
        touched[static_cast<std::size_t>(a)] = 1;
      }
      return ::testing::AssertionSuccess();
    };
    auto observe_all = [&](const std::vector<int>& arms,
                           bool ceilings) -> ::testing::AssertionResult {
      std::fill(touched.begin(), touched.end(), 0);
      for (int arm : arms) {
        ::testing::AssertionResult ok =
            observe(arm, ceilings && ops.NextDouble() < 0.5);
        if (!ok) return ok;
      }
      return ::testing::AssertionSuccess();
    };
    auto matches_oracle = [&]() -> ::testing::AssertionResult {
      selector.SelectInto(bank, k, &lazy);
      std::vector<int> want = ReferenceTopK(bank, k);
      if (lazy == want) return ::testing::AssertionSuccess();
      return ::testing::AssertionFailure() << "selector top-K != oracle top-K";
    };
    // The oracle's top K+1, for the boundary pair (K-th, (K+1)-th).
    std::vector<double> ucb;
    std::vector<int> ranked;
    auto rank = [&]() {
      UcbValuesReferenceInto(bank, &ucb);
      TopKIndicesPartialSortInto(ucb, k + 1, &ranked);
    };
    std::vector<int> every_arm(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) every_arm[static_cast<std::size_t>(i)] = i;

    // Round 1: Algorithm 1 observes every arm (mass invalidation).
    ASSERT_TRUE(observe_all(every_arm, false));
    for (int round = 2; round <= input.rounds; ++round) {
      ASSERT_TRUE(matches_oracle()) << "round " << round << " after select";
      rank();
      if (ucb[static_cast<std::size_t>(ranked[k - 1])] ==
          ucb[static_cast<std::size_t>(ranked[k])]) {
        ++ties;
      }
      for (int sel : lazy) pinned_picks += pin(sel) >= 0 ? 1 : 0;
      ASSERT_TRUE(observe_all(lazy, false));
      if (input.mass_rate > 0.0 && ops.NextDouble() < input.mass_rate) {
        const double share = 1.0 / static_cast<double>(1 + ops.NextBounded(8));
        std::vector<int> arms;
        for (int i = 0; i < m; ++i) {
          if (ops.NextDouble() < share) arms.push_back(i);
        }
        ASSERT_TRUE(observe_all(arms, true));
        ++masses;
        ASSERT_TRUE(matches_oracle()) << "round " << round << " after mass";
      }
      if (input.restore_rate > 0.0) {
        if (saved.empty() || ops.NextDouble() < 0.05) {
          saved = CaptureArms(bank);
          saved_total = bank.total_observations();
        }
        if (ops.NextDouble() < input.restore_rate) {
          if (ops.NextDouble() < 0.5) {
            ASSERT_TRUE(bank.Restore(saved, saved_total).ok());
            ++restores;
          } else {
            // Swap the K-th winner with the worst arm: the top-K set
            // changes, Σ n_j does not.
            std::vector<int> all_ranked;
            rank();
            TopKIndicesPartialSortInto(ucb, m, &all_ranked);
            std::vector<ArmState> swapped = CaptureArms(bank);
            std::swap(swapped[static_cast<std::size_t>(ranked[k - 1])],
                      swapped[static_cast<std::size_t>(all_ranked.back())]);
            ASSERT_TRUE(bank.Restore(swapped, bank.total_observations()).ok());
            ++swaps;
          }
          ASSERT_TRUE(matches_oracle()) << "round " << round
                                        << " after restore";
        }
      }
    }
    // Each adversarial input really exercised what it names.
    if (input.twins) {
      EXPECT_GT(ties, 0);
    }
    if (input.pinned) {
      EXPECT_GT(pinned_picks, 0);
    }
    if (input.restore_rate > 0.0) {
      EXPECT_GT(restores, 0);
      EXPECT_GT(swaps, 0);
    }
    if (input.mass_rate > 0.0) {
      EXPECT_GT(masses, 0);
    }
  }
}

TEST(LazyTopKSelectorTest, MassInvalidationFallsBackToRebuild) {
  const int m = 64, k = 8;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  GroupedTopKSelector selector;
  stats::Xoshiro256 rng(3);
  std::vector<int> lazy;
  for (int round = 1; round <= 20; ++round) {
    // Every arm updated every round: the pending list covers the whole
    // bank, so every group is refiled at once — or, past M pending arms,
    // rebuilt.
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 3, 4)).ok());
      selector.Invalidate(bank, i);
    }
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
  }
}

TEST(LazyTopKSelectorTest, ColdStartEmitsUnexploredFirst) {
  const int m = 50, k = 12;
  EstimatorBank bank = MakeBank(m, 4.0);
  GroupedTopKSelector selector;
  stats::Xoshiro256 rng(11);

  // No select-all round: only a drifting subset ever gets observed, the
  // rest stay cold (+inf UCB, ascending-index ties).
  // Besides K, each round also asks for exactly the warm arms, a few more
  // than that, and all M.
  std::vector<int> lazy;
  for (int round = 1; round <= 60; ++round) {
    const int warm = m - bank.num_unexplored();
    for (int kk : {k, warm, warm + 3, m}) {
      if (kk <= 0) continue;
      selector.SelectInto(bank, kk, &lazy);
      ASSERT_EQ(lazy, ReferenceTopK(bank, kk))
          << "round " << round << " k " << kk;
    }
    // Observe a couple of arbitrary arms (not necessarily the selected
    // ones) so warm/cold membership shifts between selections.
    for (int j = 0; j < 2; ++j) {
      int arm = (round * 7 + j * 13) % m;
      ASSERT_TRUE(bank.Update(arm, QuantizedBatch(rng, 4, 4)).ok());
      selector.Invalidate(bank, arm);
    }
  }
  // Selecting more arms than are warm must also match (k > warm count).
  EstimatorBank sparse = MakeBank(10, 2.0);
  GroupedTopKSelector sparse_selector;
  ASSERT_TRUE(sparse.Update(4, {0.5}).ok());
  sparse_selector.Invalidate(sparse, 4);
  std::vector<int> got;
  sparse_selector.SelectInto(sparse, 10, &got);
  EXPECT_EQ(got, ReferenceTopK(sparse, 10));
}

TEST(LazyTopKSelectorTest, ExactTiesBreakByIndex) {
  const int m = 300, k = 6;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  GroupedTopKSelector selector;
  // Identical evidence everywhere: every warm arm has the same mean and
  // count, so all M UCB values are exactly equal.
  for (int i = 0; i < m; ++i) {
    ASSERT_TRUE(bank.Update(i, {0.5, 0.5, 0.5}).ok());
    selector.Invalidate(bank, i);
  }
  std::vector<int> lazy;
  selector.SelectInto(bank, k, &lazy);
  EXPECT_EQ(lazy, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(lazy, ReferenceTopK(bank, k));
  // Re-select without any update: still the same answer.
  selector.SelectInto(bank, k, &lazy);
  EXPECT_EQ(lazy, ReferenceTopK(bank, k));
  // Every mean stays equal while the winners are played: the groups by
  // count differ in bonus, and inside each one only the index orders.
  for (int round = 2; round <= 300; ++round) {
    for (int sel : lazy) {
      ASSERT_TRUE(bank.Update(sel, {0.5, 0.5, 0.5}).ok());
      selector.Invalidate(bank, sel);
    }
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
  }
}

TEST(LazyTopKSelectorTest, DetectsSnapshotRestore) {
  const int m = 30, k = 5;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  GroupedTopKSelector selector;
  stats::Xoshiro256 rng(17);
  for (int i = 0; i < m; ++i) {
    ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 4, 8)).ok());
    selector.Invalidate(bank, i);
  }
  std::vector<int> lazy;
  selector.SelectInto(bank, k, &lazy);

  // Capture the state, keep learning, then restore — WITHOUT telling the
  // selector. The bank's update sequence must force a resync.
  std::vector<ArmState> snapshot(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) snapshot[static_cast<std::size_t>(i)] = bank.arm(i);
  std::uint64_t snapshot_total = bank.total_observations();
  for (int round = 0; round < 5; ++round) {
    selector.SelectInto(bank, k, &lazy);
    for (int sel : lazy) {
      ASSERT_TRUE(bank.Update(sel, QuantizedBatch(rng, 4, 8)).ok());
      selector.Invalidate(bank, sel);
    }
  }
  ASSERT_TRUE(bank.Restore(snapshot, snapshot_total).ok());
  selector.SelectInto(bank, k, &lazy);
  EXPECT_EQ(lazy, ReferenceTopK(bank, k));

  // Same-total restore: swap two arms' states (the sum is unchanged, so
  // only the bank's update sequence can reveal the swap).
  std::swap(snapshot[0], snapshot[1]);
  ASSERT_TRUE(bank.Restore(snapshot, snapshot_total).ok());
  selector.SelectInto(bank, k, &lazy);
  EXPECT_EQ(lazy, ReferenceTopK(bank, k));
}

// The largest mean below `mean` whose Eq. (19) value with `bonus` rounds
// to the same double, found by stepping down one ulp at a time; -1 when
// none is within reach.
double CollidingMeanBelow(double mean, double bonus) {
  const double value = mean + bonus;
  double lower = mean;
  for (int step = 0; step < 8; ++step) {
    lower = std::nextafter(lower, 0.0);
    if (lower + bonus == value) return lower;
  }
  return -1.0;
}

// A mean whose value with `bonus` rounds to exactly `value`, searched
// around value − bonus; -1 when none is within reach.
double MeanForValue(double value, double bonus) {
  const double guess = value - bonus;
  double up = guess, down = guess;
  for (int step = 0; step < 16; ++step) {
    if (up + bonus == value) return up;
    if (down + bonus == value) return down;
    up = std::nextafter(up, 2.0);
    down = std::nextafter(down, -1.0);
  }
  return -1.0;
}

// Distinct means whose values fl(mean + bonus) collide, placed across the
// K-th place with the lower index on the lower mean: the mean order puts
// the higher index first, the value tie puts the lower index first.
// "same group": both arms share a count, so one bonus and one sorted run.
// "across groups": the lower index has the smaller count, so the larger
// bonus and the lower mean. "arrival": the higher mean reaches the
// collision through an in-band Update, so its entry is filed into an
// arrival run while the lower one sits in the rebuilt run.
TEST(LazyTopKSelectorTest, RoundingCollisionsBreakByIndex) {
  const int m = 32, k = 4;  // arms 20..22 take the first three places
  const int lo = 5, hi = 9;  // the colliding pair, lo < hi
  int cases = 0;
  for (double exploration : {2.0, 3.0, 7.0}) {
    for (double base : {0.3, 0.41, 0.55, 0.62}) {
      for (const char* layout : {"same group", "across groups", "arrival"}) {
        SCOPED_TRACE(std::string(layout) + " exploration " +
                     std::to_string(exploration) + " base " +
                     std::to_string(base));
        const bool across = std::string(layout) == "across groups";
        const bool arrival = std::string(layout) == "arrival";
        // Counts first (they fix Σn and so every bonus), means second.
        std::vector<ArmState> arms(static_cast<std::size_t>(m),
                                   ArmState{40, 0.0});
        for (int top : {20, 21, 22}) {
          arms[static_cast<std::size_t>(top)] = ArmState{4, 0.95};
        }
        const std::uint64_t n_lo = 4, n_hi = across ? 5 : 4;
        arms[lo].observations = n_lo;
        arms[hi].observations = arrival ? n_hi - 1 : n_hi;
        std::uint64_t total = 0;
        for (const ArmState& a : arms) total += a.observations;
        // The bonuses at the selection, after any arrival's one sample.
        const double sl =
            exploration *
            std::log(static_cast<double>(total + (arrival ? 1 : 0)));
        const double b_lo = std::sqrt(sl / static_cast<double>(n_lo));
        const double b_hi = std::sqrt(sl / static_cast<double>(n_hi));

        double mean_hi = base, mean_lo = -1.0;
        if (arrival) {
          // hi is restored one sample short and then observes 1.0, so its
          // mean is whatever Eq. (18) rounds to.
          arms[hi].mean = base;
          const double n_old = static_cast<double>(n_hi - 1);
          mean_hi = (base * n_old + 1.0) / (n_old + 1.0);
        } else {
          arms[hi].mean = mean_hi;
        }
        mean_lo = across ? MeanForValue(mean_hi + b_hi, b_lo)
                         : CollidingMeanBelow(mean_hi, b_hi);
        if (!(mean_lo >= 0.0 && mean_lo < mean_hi)) continue;
        arms[lo].mean = mean_lo;

        EstimatorBank bank = MakeBank(m, exploration);
        GroupedTopKSelector selector;
        ASSERT_TRUE(bank.Restore(arms, total).ok());
        std::vector<int> got;
        selector.SelectInto(bank, k, &got);  // rebuild
        ASSERT_EQ(got, ReferenceTopK(bank, k));
        if (arrival) {
          ASSERT_TRUE(bank.Update(hi, {1.0}).ok());
          selector.Invalidate(bank, hi);
          ASSERT_EQ(bank.means()[hi], mean_hi);
        }
        ASSERT_EQ(bank.scaled_log(), sl);
        std::vector<double> ucb;
        UcbValuesReferenceInto(bank, &ucb);
        ASSERT_EQ(ucb[lo], ucb[hi]);
        ASSERT_LT(bank.means()[lo], bank.means()[hi]);
        ASSERT_GT(ucb[20], ucb[lo]);
        selector.SelectInto(bank, k, &got);
        EXPECT_EQ(got, (std::vector<int>{20, 21, 22, lo}));
        EXPECT_EQ(got, ReferenceTopK(bank, k));
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 24);
}

// An Update made behind the selector's back (through the bank pointer,
// with no Invalidate), followed by an ordinary Observe before the next
// selection, must still be caught: the Observe's Invalidate sees a gap in
// the bank's update sequence.
TEST(LazyTopKSelectorTest, OutOfBandUpdateIsNotMaskedByObserve) {
  CucbOptions options;
  options.num_sellers = 2000;
  options.num_selected = 10;
  options.exploration = 0.01;
  auto created = CucbPolicy::Create(options);
  ASSERT_TRUE(created.ok());
  CucbPolicy& policy = created.value();
  stats::Xoshiro256 rng(2024);
  std::vector<int> selected;
  std::vector<std::vector<double>> batches;
  for (std::int64_t round = 1; round <= 40; ++round) {
    ASSERT_TRUE(policy.SelectRoundInto(round, &selected).ok());
    batches.assign(selected.size(), {});
    for (auto& batch : batches) batch = QuantizedBatch(rng, 4, 8);
    ASSERT_TRUE(policy.Observe(selected, batches).ok());
  }
  ASSERT_TRUE(policy.SelectRoundInto(41, &selected).ok());
  // A warm, low-mean arm that was not selected.
  EstimatorBank& bank = *policy.mutable_estimator();
  int target = -1;
  for (int i = 0; i < bank.num_arms(); ++i) {
    if (std::find(selected.begin(), selected.end(), i) != selected.end()) {
      continue;
    }
    if (bank.arm(i).observations > 0 && bank.means()[i] < 0.3) {
      target = i;
      break;
    }
  }
  ASSERT_GE(target, 0);
  ASSERT_TRUE(bank.Update(target, std::vector<double>(64, 1.0)).ok());
  ASSERT_TRUE(policy.Observe({selected[0]}, {QuantizedBatch(rng, 4, 8)}).ok());

  std::vector<int> want = bank.TopKByUcb(10);
  ASSERT_EQ(want.front(), target);
  ASSERT_TRUE(policy.SelectRoundInto(42, &selected).ok());
  EXPECT_EQ(selected, want);
}

// Algorithm 1 at the large-M scale, observations from the quality
// environment: the selector and the full-rescan oracle agree every round.
TEST(LazyTopKSelectorTest, LargeMMatchesReferenceEveryRound) {
  const int m = 100000, k = 316, rounds = 600;
  EnvironmentConfig env_config;
  env_config.num_sellers = m;
  env_config.seed = 316;
  auto env = QualityEnvironment::Create(env_config);
  ASSERT_TRUE(env.ok());
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  GroupedTopKSelector selector;
  std::vector<double> batch;
  auto observe = [&](int arm) {
    env.value().ObserveSellerInto(arm, &batch);
    ASSERT_TRUE(bank.Update(arm, batch).ok());
    selector.Invalidate(bank, arm);
  };
  for (int i = 0; i < m; ++i) observe(i);
  std::vector<int> got;
  for (int round = 2; round <= rounds; ++round) {
    selector.SelectInto(bank, k, &got);
    ASSERT_EQ(got, ReferenceTopK(bank, k)) << "round " << round;
    for (int sel : got) observe(sel);
  }
}

TEST(CucbPolicyPathsTest, ReferenceAndOptimizedSelectIdentically) {
  CucbOptions options;
  options.num_sellers = 150;
  options.num_selected = 7;
  auto optimized = CucbPolicy::Create(options);
  auto reference = ReferenceCucbPolicy::Create(options);
  ASSERT_TRUE(optimized.ok());
  ASSERT_TRUE(reference.ok());

  stats::Xoshiro256 rng(1234);
  std::vector<int> a, b;
  std::vector<std::vector<double>> batches;
  for (std::int64_t round = 1; round <= 300; ++round) {
    ASSERT_TRUE(optimized.value().SelectRoundInto(round, &a).ok());
    ASSERT_TRUE(reference.value().SelectRoundInto(round, &b).ok());
    ASSERT_EQ(a, b) << "round " << round;
    batches.clear();
    for (std::size_t j = 0; j < a.size(); ++j) {
      batches.push_back(QuantizedBatch(rng, 6, 8));
    }
    ASSERT_TRUE(optimized.value().Observe(a, batches).ok());
    ASSERT_TRUE(reference.value().Observe(b, batches).ok());
  }
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
