// Lazy top-K selector and heap-select correctness: both must reproduce the
// full-rescan oracle (iota + partial_sort over a full UCB scan, kept in
// tests/support) bit for bit under adversarial update patterns — ties,
// mass invalidation, cold-start arms, and restored-from-snapshot banks.

#include "bandit/topk.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bandit/arm.h"
#include "bandit/cucb_policy.h"
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

// One input of the selector-vs-oracle sweep. The plain input is Algorithm
// 1's select/observe loop; the others interleave, round by round, the
// update patterns the selector's exactness proof has to survive. They use
// M large enough that the candidate pool is a small share of the arms, so
// arms outside it exist and the lazy path, not a rebuild, is on trial.
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
  /// worst arm, which sits outside the pool (only the bank's epoch reveals
  /// it).
  double restore_rate;
  /// Per-round chance of updating a random 1/8 up to all of the arms at
  /// once: below a quarter they join the pool, above it force a rebuild.
  /// Half of them jump to the quality ceiling with a batch as long as
  /// their history, so arms from outside the pool break into the top K.
  double mass_rate;
};

TEST(LazyTopKSelectorTest, MatchesReferenceAcrossRounds) {
  const SweepInput inputs[] = {
      {"plain", 42, 200, 10, 500, 0.0, false, false, 0.0, 0.0},
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
    LazyTopKSelector selector;
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
      return ::testing::AssertionFailure() << "lazy top-K != oracle top-K";
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
    if (input.restore_rate == 0.0 && input.mass_rate == 0.0 &&
        !input.twins) {
      // The plain input: quantized ties force conservative rebuilds (an
      // exact tie at the pool boundary is never trusted), but most rounds
      // must still resolve from the pool alone.
      EXPECT_LT(selector.full_rebuilds(), input.rounds / 2);
      EXPECT_GT(selector.entries_revalidated(), 0);
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

TEST(LazyTopKSelectorTest, SteadyStateAmortizesRebuilds) {
  const int m = 2000, k = 20;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(5);
  // Continuous observations: tie-free values, the regime the pool margin
  // is sized for. Rebuilds should land every ~(P − K)/K rounds, far below
  // one per round.
  std::vector<double> batch(4);
  for (int i = 0; i < m; ++i) {
    for (double& q : batch) q = rng.NextDouble();
    ASSERT_TRUE(bank.Update(i, batch).ok());
    selector.Invalidate(bank, i);
  }
  const int rounds = 300;
  std::vector<int> lazy;
  for (int round = 2; round <= rounds; ++round) {
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
    for (int sel : lazy) {
      for (double& q : batch) q = rng.NextDouble();
      ASSERT_TRUE(bank.Update(sel, batch).ok());
      selector.Invalidate(bank, sel);
    }
  }
  EXPECT_LT(selector.full_rebuilds(), rounds / 4);
  // The pool stays a small fraction of the bank.
  EXPECT_LT(selector.pool_size(), static_cast<std::size_t>(m) / 2);
}

TEST(LazyTopKSelectorTest, MassInvalidationFallsBackToRebuild) {
  const int m = 64, k = 8;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(3);
  std::vector<int> lazy;
  for (int round = 1; round <= 20; ++round) {
    // Every arm updated every round: pending covers the whole bank, so the
    // selector must take the full-rescan route — and stay correct.
    for (int i = 0; i < m; ++i) {
      ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 3, 4)).ok());
      selector.Invalidate(bank, i);
    }
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
  }
  EXPECT_GE(selector.full_rebuilds(), 20);
}

TEST(LazyTopKSelectorTest, ColdStartEmitsUnexploredFirst) {
  const int m = 50, k = 12;
  EstimatorBank bank = MakeBank(m, 4.0);
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(11);

  // No select-all round: only a drifting subset ever gets observed, the
  // rest stay cold (+inf UCB, ascending-index ties).
  std::vector<int> lazy;
  for (int round = 1; round <= 60; ++round) {
    selector.SelectInto(bank, k, &lazy);
    ASSERT_EQ(lazy, ReferenceTopK(bank, k)) << "round " << round;
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
  LazyTopKSelector sparse_selector;
  ASSERT_TRUE(sparse.Update(4, {0.5}).ok());
  sparse_selector.Invalidate(sparse, 4);
  std::vector<int> got;
  sparse_selector.SelectInto(sparse, 10, &got);
  EXPECT_EQ(got, ReferenceTopK(sparse, 10));
}

TEST(LazyTopKSelectorTest, ExactTiesBreakByIndex) {
  const int m = 40, k = 6;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  LazyTopKSelector selector;
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
}

// Constructed near-boundary cases for the outside bound. After the
// rebuild, a pool arm P is updated into an exact twin (same mean, same
// count) of the best outside arm X, so both carry the same canonical UCB
// and X, the lower index, wins the tie. The pool sees only P. The bound
// V + (s − s₀)·B equals X's value in exact arithmetic and lands within a
// few ulps of it in floating point, so only the slack and the strict
// comparison send the selector to a rebuild. A selector that trusts a tie
// at the bound, or drops the slack, returns P.
TEST(LazyTopKSelectorTest, OutsideTwinAtTheBoundWinsItsTie) {
  const int m = 200, k = 1;
  const int x = 0;   // best outside arm
  const int p = 65;  // its twin inside the pool (pool = top 1 + 64 arms)
  int above_bound = 0;  // cases where X's value exceeds the slack-free bound
  for (double exploration : {2.0, 3.0, 5.0, 11.0}) {
    for (int drop = 1; drop <= 16; ++drop) {
      SCOPED_TRACE("exploration " + std::to_string(exploration) + " drop " +
                   std::to_string(drop));
      EstimatorBank bank = MakeBank(m, exploration);
      LazyTopKSelector selector;
      auto update = [&](int arm, const std::vector<double>& batch) {
        ASSERT_TRUE(bank.Update(arm, batch).ok());
        selector.Invalidate(bank, arm);
      };
      update(x, {1.0, 0.0});  // mean 0.5, count 2
      for (int arm = 1; arm < p; ++arm) update(arm, {1.0, 1.0});
      update(p, {1.0});  // ranks above X until its next update
      // The rest sit below X in both value and bonus base.
      for (int arm = p + 1; arm < m; ++arm) {
        update(arm, std::vector<double>(8, 0.0));
      }
      std::vector<int> lazy;
      selector.SelectInto(bank, k, &lazy);
      ASSERT_EQ(selector.full_rebuilds(), 1);
      std::vector<double> ucb;
      UcbValuesReferenceInto(bank, &ucb);
      const double outside_value = ucb[x];
      const double s_rebuild = bank.bonus_scalar();

      // Pool updates only: the fillers fall below X and P becomes its twin.
      for (int arm = 1; arm < p; ++arm) {
        update(arm, std::vector<double>(static_cast<std::size_t>(drop), 0.0));
      }
      update(p, {0.0});
      UcbValuesReferenceInto(bank, &ucb);
      ASSERT_EQ(ucb[p], ucb[x]);
      const double bound =
          outside_value +
          (bank.bonus_scalar() - s_rebuild) * bank.bonus_bases()[x];
      if (ucb[x] > bound) ++above_bound;

      selector.SelectInto(bank, k, &lazy);
      EXPECT_EQ(lazy, std::vector<int>{x});
      EXPECT_EQ(lazy, ReferenceTopK(bank, k));
      EXPECT_EQ(selector.full_rebuilds(), 2);
    }
  }
  // Some cases land in the window a slack-free strict bound would trust.
  EXPECT_GT(above_bound, 0);
}

TEST(LazyTopKSelectorTest, DetectsSnapshotRestore) {
  const int m = 30, k = 5;
  EstimatorBank bank = MakeBank(m, static_cast<double>(k + 1));
  LazyTopKSelector selector;
  stats::Xoshiro256 rng(17);
  for (int i = 0; i < m; ++i) {
    ASSERT_TRUE(bank.Update(i, QuantizedBatch(rng, 4, 8)).ok());
    selector.Invalidate(bank, i);
  }
  std::vector<int> lazy;
  selector.SelectInto(bank, k, &lazy);

  // Capture the state, keep learning, then restore — WITHOUT telling the
  // selector. The total-observations mismatch must force a resync.
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
  // only the bank's epoch counter can reveal the swap).
  std::swap(snapshot[0], snapshot[1]);
  ASSERT_TRUE(bank.Restore(snapshot, snapshot_total).ok());
  selector.SelectInto(bank, k, &lazy);
  EXPECT_EQ(lazy, ReferenceTopK(bank, k));
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
