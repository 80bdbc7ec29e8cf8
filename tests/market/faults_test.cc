// Unit tests for the fault-injection subsystem: profile validation,
// injector determinism and rate calibration, corruption, backoff delays and
// the circuit-breaker state machine.

#include "market/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "stats/rng.h"

namespace cdt {
namespace market {
namespace {

// ---------------------------------------------------------------- profile

TEST(FaultProfileTest, DefaultProfileIsInertAndValid) {
  FaultProfile profile;
  EXPECT_FALSE(profile.any());
  EXPECT_TRUE(profile.Validate().ok());
}

TEST(FaultProfileTest, AnyDetectsEachRate) {
  for (double FaultProfile::*member :
       {&FaultProfile::default_rate, &FaultProfile::corrupt_rate,
        &FaultProfile::partial_rate, &FaultProfile::settlement_failure_rate}) {
    FaultProfile profile;
    profile.*member = 0.1;
    EXPECT_TRUE(profile.any());
    EXPECT_TRUE(profile.Validate().ok());
  }
}

TEST(FaultProfileTest, RejectsOutOfRangeAndNonFiniteRates) {
  FaultProfile profile;
  profile.default_rate = -0.1;
  EXPECT_FALSE(profile.Validate().ok());
  profile.default_rate = 1.5;
  EXPECT_FALSE(profile.Validate().ok());
  profile.default_rate = std::nan("");
  EXPECT_FALSE(profile.Validate().ok());
}

TEST(FaultProfileTest, RejectsOutcomeRatesSummingPastOne) {
  FaultProfile profile;
  profile.default_rate = 0.5;
  profile.corrupt_rate = 0.4;
  profile.partial_rate = 0.2;
  EXPECT_FALSE(profile.Validate().ok());
  profile.partial_rate = 0.1;
  EXPECT_TRUE(profile.Validate().ok());
}

TEST(FaultProfileTest, RejectsBadPartialFractionBounds) {
  FaultProfile profile;
  profile.partial_fraction_lo = 0.0;  // must be > 0
  EXPECT_FALSE(profile.Validate().ok());
  profile.partial_fraction_lo = 0.8;
  profile.partial_fraction_hi = 0.5;  // lo > hi
  EXPECT_FALSE(profile.Validate().ok());
  profile.partial_fraction_lo = 0.5;
  profile.partial_fraction_hi = 1.0;  // must be < 1
  EXPECT_FALSE(profile.Validate().ok());
}

TEST(FaultProfileTest, RejectsCertainSettlementFailure) {
  FaultProfile profile;
  profile.settlement_failure_rate = 1.0;
  EXPECT_FALSE(profile.Validate().ok());
}

// --------------------------------------------------------------- injector

TEST(FaultInjectorTest, DrawsAreDeterministicAndOrderIndependent) {
  FaultProfile profile;
  profile.default_rate = 0.3;
  profile.corrupt_rate = 0.1;
  profile.partial_rate = 0.1;
  profile.seed = 99;
  FaultInjector a(profile), b(profile);

  // Query b in reverse order: draws are pure functions of (round, seller).
  std::vector<SellerFaultDraw> forward, backward;
  for (int round = 0; round < 50; ++round) {
    for (int seller = 0; seller < 10; ++seller) {
      forward.push_back(a.DrawSeller(round, seller));
    }
  }
  for (int round = 49; round >= 0; --round) {
    for (int seller = 9; seller >= 0; --seller) {
      backward.push_back(b.DrawSeller(round, seller));
    }
  }
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    const SellerFaultDraw& f = forward[i];
    const SellerFaultDraw& r = backward[backward.size() - 1 - i];
    EXPECT_EQ(f.outcome, r.outcome);
    EXPECT_EQ(f.fraction, r.fraction);
  }
}

TEST(FaultInjectorTest, EmpiricalRatesMatchTheProfile) {
  FaultProfile profile;
  profile.default_rate = 0.2;
  profile.corrupt_rate = 0.1;
  profile.partial_rate = 0.15;
  profile.seed = 7;
  FaultInjector injector(profile);

  const int kRounds = 2000, kSellers = 10;
  int defaults = 0, corruptions = 0, partials = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int seller = 0; seller < kSellers; ++seller) {
      switch (injector.DrawSeller(round, seller).outcome) {
        case DeliveryOutcome::kDefaulted: ++defaults; break;
        case DeliveryOutcome::kCorrupted: ++corruptions; break;
        case DeliveryOutcome::kPartial: ++partials; break;
        case DeliveryOutcome::kDelivered: break;
      }
    }
  }
  const double n = static_cast<double>(kRounds * kSellers);
  EXPECT_NEAR(defaults / n, 0.2, 0.01);
  EXPECT_NEAR(corruptions / n, 0.1, 0.01);
  EXPECT_NEAR(partials / n, 0.15, 0.01);
}

TEST(FaultInjectorTest, PartialFractionsStayInsideTheConfiguredRange) {
  FaultProfile profile;
  profile.partial_rate = 1.0;
  profile.partial_fraction_lo = 0.3;
  profile.partial_fraction_hi = 0.6;
  FaultInjector injector(profile);
  bool saw_spread = false;
  double first = -1.0;
  for (int round = 0; round < 200; ++round) {
    SellerFaultDraw draw = injector.DrawSeller(round, 0);
    ASSERT_EQ(draw.outcome, DeliveryOutcome::kPartial);
    EXPECT_GE(draw.fraction, 0.3);
    EXPECT_LE(draw.fraction, 0.6);
    if (first < 0.0) first = draw.fraction;
    if (draw.fraction != first) saw_spread = true;
  }
  EXPECT_TRUE(saw_spread);
}

TEST(FaultInjectorTest, ZeroSettlementRateNeverFails) {
  FaultInjector injector(FaultProfile{});
  for (int round = 0; round < 100; ++round) {
    EXPECT_FALSE(injector.SettlementAttemptFails(round, 0));
  }
}

TEST(FaultInjectorTest, SettlementFailuresTrackTheConfiguredRate) {
  FaultProfile profile;
  profile.settlement_failure_rate = 0.25;
  profile.seed = 11;
  FaultInjector injector(profile);
  int failures = 0;
  const int kRounds = 5000;
  for (int round = 0; round < kRounds; ++round) {
    if (injector.SettlementAttemptFails(round, 0)) ++failures;
  }
  EXPECT_NEAR(failures / static_cast<double>(kRounds), 0.25, 0.02);
}

TEST(FaultInjectorTest, CorruptAlwaysInvalidatesTheBatch) {
  FaultProfile profile;
  profile.corrupt_rate = 1.0;
  FaultInjector injector(profile);
  for (int seller = 0; seller < 8; ++seller) {
    std::vector<double> batch(10, 0.5);
    ASSERT_TRUE(ValidObservationBatch(batch));
    injector.Corrupt(3, seller, &batch);
    EXPECT_FALSE(ValidObservationBatch(batch));
  }
  // Empty / null batches are a no-op, not a crash.
  std::vector<double> empty;
  injector.Corrupt(3, 0, &empty);
  injector.Corrupt(3, 0, nullptr);
}

TEST(ValidObservationBatchTest, AcceptsUnitIntervalRejectsEverythingElse) {
  EXPECT_TRUE(ValidObservationBatch({0.0, 0.5, 1.0}));
  EXPECT_TRUE(ValidObservationBatch({}));
  EXPECT_FALSE(ValidObservationBatch({0.5, -0.01}));
  EXPECT_FALSE(ValidObservationBatch({1.01}));
  EXPECT_FALSE(ValidObservationBatch({std::nan("")}));
  EXPECT_FALSE(
      ValidObservationBatch({std::numeric_limits<double>::infinity()}));
}

// ---------------------------------------------------------------- backoff

TEST(RecoveryOptionsTest, DefaultsValidateAndBadKnobsFail) {
  RecoveryOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_settlement_retries = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = RecoveryOptions{};
  options.backoff_multiplier = 0.5;
  EXPECT_FALSE(options.Validate().ok());
  options = RecoveryOptions{};
  options.backoff_cap = options.backoff_initial / 2.0;
  EXPECT_FALSE(options.Validate().ok());
  options = RecoveryOptions{};
  options.quarantine_threshold = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = RecoveryOptions{};
  options.quarantine_cooldown = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = RecoveryOptions{};
  options.probation_successes = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(BackoffDelayTest, GrowsExponentiallyThenCaps) {
  RecoveryOptions options;
  options.backoff_initial = 0.5;
  options.backoff_multiplier = 2.0;
  options.backoff_cap = 4.0;
  EXPECT_DOUBLE_EQ(BackoffDelay(options, 0), 0.5);
  EXPECT_DOUBLE_EQ(BackoffDelay(options, 1), 1.0);
  EXPECT_DOUBLE_EQ(BackoffDelay(options, 2), 2.0);
  EXPECT_DOUBLE_EQ(BackoffDelay(options, 3), 4.0);
  EXPECT_DOUBLE_EQ(BackoffDelay(options, 10), 4.0);  // capped forever after
}

// ---------------------------------------------------------------- breaker

RecoveryOptions BreakerOptions() {
  RecoveryOptions options;
  options.quarantine_threshold = 3;
  options.quarantine_cooldown = 10;
  options.probation_successes = 2;
  return options;
}

TEST(ReliabilityTrackerTest, ConsecutiveFaultsOpenTheBreaker) {
  ReliabilityTracker tracker(4, BreakerOptions());
  EXPECT_TRUE(tracker.Available(1, 0));
  tracker.RecordFault(1, 1, FaultKind::kSellerDefault);
  tracker.RecordFault(1, 2, FaultKind::kSellerDefault);
  EXPECT_EQ(tracker.seller(1).state, BreakerState::kClosed);
  tracker.RecordFault(1, 3, FaultKind::kCorruptedReport);
  EXPECT_EQ(tracker.seller(1).state, BreakerState::kOpen);
  EXPECT_EQ(tracker.seller(1).times_opened, 1);
  EXPECT_EQ(tracker.seller(1).opened_round, 3);
  EXPECT_FALSE(tracker.Available(1, 3));
  EXPECT_FALSE(tracker.Available(1, 12));   // still cooling down
  EXPECT_TRUE(tracker.Available(1, 13));    // cooldown elapsed
  EXPECT_EQ(tracker.QuarantinedCount(5), 1);
  EXPECT_EQ(tracker.QuarantinedCount(13), 0);
  // Other sellers are untouched.
  EXPECT_EQ(tracker.seller(0).state, BreakerState::kClosed);
}

// The quarantined-seller count as it was computed before it was kept
// incrementally: one Available test per seller.
int QuarantinedCountByScan(const ReliabilityTracker& tracker,
                           std::int64_t round) {
  int count = 0;
  for (int i = 0; i < tracker.num_sellers(); ++i) {
    if (!tracker.Available(i, round)) ++count;
  }
  return count;
}

// A faulty campaign: each round a few sellers pass the breaker gate and
// fault or deliver at random, so breakers open, cool down, go on probation,
// close and reopen. After every round the kept count equals the scan, also
// across a Restore into a fresh tracker every 50 rounds.
TEST(ReliabilityTrackerTest, QuarantinedCountMatchesTheScanOverACampaign) {
  constexpr int kSellers = 30;
  auto tracker = std::make_unique<ReliabilityTracker>(kSellers,
                                                      BreakerOptions());
  stats::Xoshiro256 rng(0xB4EA);
  int probations = 0;
  int max_quarantined = 0;
  for (std::int64_t round = 1; round <= 600; ++round) {
    for (int pick = 0; pick < 6; ++pick) {
      const int seller = static_cast<int>(rng.NextBounded(kSellers));
      if (!tracker->Available(seller, round)) continue;
      if (tracker->seller(seller).state == BreakerState::kOpen) ++probations;
      if (rng.NextDouble() < 0.45) {
        tracker->RecordFault(seller, round, rng.NextDouble() < 0.5
                                                ? FaultKind::kSellerDefault
                                                : FaultKind::kCorruptedReport);
      } else {
        tracker->RecordDelivery(seller, round, false);
      }
    }
    const int count = tracker->QuarantinedCount(round);
    ASSERT_EQ(count, QuarantinedCountByScan(*tracker, round))
        << "round " << round;
    max_quarantined = std::max(max_quarantined, count);
    if (round % 50 == 0) {
      auto restored = std::make_unique<ReliabilityTracker>(kSellers,
                                                           BreakerOptions());
      ASSERT_TRUE(
          restored->Restore(tracker->sellers(), tracker->total_faults()).ok());
      tracker = std::move(restored);
      ASSERT_EQ(tracker->QuarantinedCount(round), count) << "round " << round;
    }
  }
  std::int64_t reopened = 0;
  for (const SellerReliability& s : tracker->sellers()) {
    reopened += std::max<std::int64_t>(0, s.times_opened - 1);
  }
  EXPECT_GT(probations, 0);
  EXPECT_GT(reopened, 0);
  EXPECT_GT(max_quarantined, 1);
}

TEST(ReliabilityTrackerTest, DeliveryResetsTheConsecutiveRun) {
  ReliabilityTracker tracker(2, BreakerOptions());
  tracker.RecordFault(0, 1, FaultKind::kSellerDefault);
  tracker.RecordFault(0, 2, FaultKind::kSellerDefault);
  tracker.RecordDelivery(0, 3, /*partial=*/false);
  tracker.RecordFault(0, 4, FaultKind::kSellerDefault);
  tracker.RecordFault(0, 5, FaultKind::kSellerDefault);
  EXPECT_EQ(tracker.seller(0).state, BreakerState::kClosed);
}

TEST(ReliabilityTrackerTest, ProbationClosesAfterCleanDeliveries) {
  ReliabilityTracker tracker(1, BreakerOptions());
  for (std::int64_t round = 1; round <= 3; ++round) {
    tracker.RecordFault(0, round, FaultKind::kSellerDefault);
  }
  ASSERT_EQ(tracker.seller(0).state, BreakerState::kOpen);
  // First post-cooldown delivery lazily enters probation, then counts.
  tracker.RecordDelivery(0, 14, /*partial=*/true);
  EXPECT_EQ(tracker.seller(0).state, BreakerState::kProbation);
  tracker.RecordDelivery(0, 15, /*partial=*/false);
  EXPECT_EQ(tracker.seller(0).state, BreakerState::kClosed);
  EXPECT_EQ(tracker.seller(0).partials, 1);
  EXPECT_EQ(tracker.seller(0).deliveries, 2);
}

TEST(ReliabilityTrackerTest, FaultDuringProbationReopensImmediately) {
  ReliabilityTracker tracker(1, BreakerOptions());
  for (std::int64_t round = 1; round <= 3; ++round) {
    tracker.RecordFault(0, round, FaultKind::kSellerDefault);
  }
  ASSERT_EQ(tracker.seller(0).state, BreakerState::kOpen);
  tracker.RecordDelivery(0, 14, /*partial=*/false);
  ASSERT_EQ(tracker.seller(0).state, BreakerState::kProbation);
  tracker.RecordFault(0, 15, FaultKind::kSellerDefault);
  EXPECT_EQ(tracker.seller(0).state, BreakerState::kOpen);
  EXPECT_EQ(tracker.seller(0).opened_round, 15);
  EXPECT_EQ(tracker.seller(0).times_opened, 2);
}

TEST(ReliabilityTrackerTest, DeliveryRateAndTotals) {
  ReliabilityTracker tracker(2, BreakerOptions());
  EXPECT_DOUBLE_EQ(tracker.seller(0).delivery_rate(), 1.0);  // unseen
  tracker.RecordDelivery(0, 1, false);
  tracker.RecordDelivery(0, 2, false);
  tracker.RecordFault(0, 3, FaultKind::kSellerDefault);
  tracker.RecordFault(0, 4, FaultKind::kCorruptedReport);
  EXPECT_DOUBLE_EQ(tracker.seller(0).delivery_rate(), 0.5);
  EXPECT_EQ(tracker.seller(0).defaults, 1);
  EXPECT_EQ(tracker.seller(0).corruptions, 1);
  EXPECT_EQ(tracker.total_faults(), 2);
  tracker.RecordQuarantineDrop(1);
  EXPECT_EQ(tracker.seller(1).quarantine_drops, 1);
}

TEST(ReliabilityTrackerTest, RestoreRejectsAFaultTotalOffTheSellerSum) {
  ReliabilityTracker source(3, BreakerOptions());
  source.RecordFault(0, 1, FaultKind::kSellerDefault);
  source.RecordFault(2, 2, FaultKind::kCorruptedReport);
  source.RecordFault(2, 3, FaultKind::kSellerDefault);
  ASSERT_EQ(source.total_faults(), 3);

  ReliabilityTracker target(3, BreakerOptions());
  util::Status bumped =
      target.Restore(source.sellers(), source.total_faults() + 1);
  EXPECT_EQ(bumped.code(), util::StatusCode::kInvalidArgument);
  // A refused restore leaves the tracker untouched.
  EXPECT_EQ(target.total_faults(), 0);
  EXPECT_EQ(target.seller(2).defaults, 0);

  // Two sellers at INT64_MAX plus 3 wrap to exactly 1 in 64 bits: only
  // an overflowing sum would match this total.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<SellerReliability> wrapped(3);
  wrapped[0].defaults = kMax;
  wrapped[1].corruptions = kMax;
  wrapped[2].defaults = 3;
  util::Status overflow = target.Restore(wrapped, 1);
  EXPECT_EQ(overflow.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(target.total_faults(), 0);

  EXPECT_TRUE(target.Restore(source.sellers(), source.total_faults()).ok());
  EXPECT_EQ(target.total_faults(), 3);
}

TEST(ReliabilityTrackerTest, TotalOpenedTracksTheSellerSumAcrossRestore) {
  ReliabilityTracker source(3, BreakerOptions());
  for (std::int64_t round = 1; round <= 3; ++round) {
    source.RecordFault(0, round, FaultKind::kSellerDefault);
    source.RecordFault(1, round, FaultKind::kCorruptedReport);
  }
  source.RecordDelivery(0, 14, /*partial=*/false);  // probation
  source.RecordFault(0, 15, FaultKind::kSellerDefault);  // reopens
  ASSERT_EQ(source.seller(0).times_opened, 2);
  ASSERT_EQ(source.seller(1).times_opened, 1);
  EXPECT_EQ(source.total_opened(), 3);

  ReliabilityTracker target(3, BreakerOptions());
  ASSERT_TRUE(target.Restore(source.sellers(), source.total_faults()).ok());
  EXPECT_EQ(target.total_opened(), 3);
  for (std::int64_t round = 16; round <= 18; ++round) {
    target.RecordFault(2, round, FaultKind::kSellerDefault);
  }
  ASSERT_EQ(target.seller(2).state, BreakerState::kOpen);
  std::int64_t per_seller = 0;
  for (int i = 0; i < target.num_sellers(); ++i) {
    per_seller += target.seller(i).times_opened;
  }
  EXPECT_EQ(per_seller, 4);
  EXPECT_EQ(target.total_opened(), per_seller);
}

TEST(ReliabilityTrackerTest, RestoreRejectsABreakerThatNeverOpened) {
  ReliabilityTracker source(3, BreakerOptions());
  for (std::int64_t round = 1; round <= 3; ++round) {
    source.RecordFault(1, round, FaultKind::kSellerDefault);
  }
  ASSERT_EQ(source.seller(1).state, BreakerState::kOpen);
  ASSERT_EQ(source.seller(1).times_opened, 1);

  ReliabilityTracker target(3, BreakerOptions());
  for (BreakerState state : {BreakerState::kOpen, BreakerState::kProbation}) {
    std::vector<SellerReliability> edited = source.sellers();
    edited[1].state = state;
    edited[1].times_opened = 0;
    util::Status status = target.Restore(edited, source.total_faults());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << "breaker state " << static_cast<int>(state);
    // A refused restore leaves the tracker untouched.
    EXPECT_EQ(target.seller(1).state, BreakerState::kClosed);
    EXPECT_EQ(target.total_faults(), 0);
  }
  EXPECT_TRUE(target.Restore(source.sellers(), source.total_faults()).ok());
  EXPECT_EQ(target.total_opened(), 1);
}

TEST(ReliabilityTrackerTest, RestoreRejectsMoreOpeningsThanFaults) {
  ReliabilityTracker source(3, BreakerOptions());
  for (std::int64_t round = 1; round <= 3; ++round) {
    source.RecordFault(1, round, FaultKind::kCorruptedReport);
  }
  ASSERT_EQ(source.seller(1).times_opened, 1);

  ReliabilityTracker target(3, BreakerOptions());
  // Each opening needs a fault of its own: three faults allow at most
  // three openings, and a seller with no faults never opened.
  std::vector<SellerReliability> edited = source.sellers();
  edited[1].times_opened = 4;
  util::Status status = target.Restore(edited, source.total_faults());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  edited = source.sellers();
  edited[0].times_opened = 1;
  status = target.Restore(edited, source.total_faults());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(target.total_opened(), 0);
  EXPECT_EQ(target.total_faults(), 0);

  edited = source.sellers();
  edited[1].times_opened = 3;
  EXPECT_TRUE(target.Restore(edited, source.total_faults()).ok());
  EXPECT_EQ(target.total_opened(), 3);
}

// --------------------------------------------------------------- encoding

TEST(FaultEventTest, SummaryEncoding) {
  FaultEvent partial{7, FaultKind::kPartialDelivery, 3, 0.42, true};
  FaultEvent settlement{9, FaultKind::kSettlementFailure, -1, 2.0, false};
  EXPECT_EQ(EncodeFaultSummary({}), "");
  EXPECT_EQ(EncodeFaultSummary({partial, settlement}),
            "partial:3@0.42;settlement:-1@2!");
}

}  // namespace
}  // namespace market
}  // namespace cdt
