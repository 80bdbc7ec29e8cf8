#include "trace/availability.h"

#include <gtest/gtest.h>

#include "trace/generator.h"

namespace cdt {
namespace trace {
namespace {

std::vector<TripRecord> MakeTrips() {
  // Taxi 1: trips at hours 0 and 1; taxi 2: hour 5 only; taxi 3: none.
  auto trip = [](std::int64_t taxi, std::int64_t hour) {
    TripRecord t;
    t.taxi_id = taxi;
    t.timestamp = hour * 3600 + 100;
    return t;
  };
  return {trip(1, 0), trip(1, 1), trip(1, 25) /* day 2, hour 1 */,
          trip(2, 5)};
}

TEST(AvailabilityModelTest, Validation) {
  EXPECT_FALSE(AvailabilityModel::FromTrips(MakeTrips(), {}, 24).ok());
  EXPECT_FALSE(AvailabilityModel::FromTrips(MakeTrips(), {1}, 0).ok());
  EXPECT_FALSE(
      AvailabilityModel::FromTrips(MakeTrips(), {1}, 24, 0).ok());
  EXPECT_FALSE(
      AvailabilityModel::FromTrips(MakeTrips(), {1, 1}, 24).ok());
}

TEST(AvailabilityModelTest, MasksFollowTripHours) {
  auto model = AvailabilityModel::FromTrips(MakeTrips(), {1, 2}, 24);
  ASSERT_TRUE(model.ok());
  // Seller 0 (taxi 1): hours 0, 1 active (hour 1 has two trips).
  EXPECT_TRUE(model.value().IsAvailable(0, 1));   // round 1 -> bucket 0
  EXPECT_TRUE(model.value().IsAvailable(0, 2));   // bucket 1
  EXPECT_FALSE(model.value().IsAvailable(0, 6));  // bucket 5
  // Seller 1 (taxi 2): hour 5 only.
  EXPECT_FALSE(model.value().IsAvailable(1, 1));
  EXPECT_TRUE(model.value().IsAvailable(1, 6));
  // Periodicity: round 25 maps back to bucket 0.
  EXPECT_TRUE(model.value().IsAvailable(0, 25));
}

TEST(AvailabilityModelTest, MinTripsThreshold) {
  // With min_trips=2, only taxi 1's hour 1 (two trips) qualifies.
  auto model = AvailabilityModel::FromTrips(MakeTrips(), {1}, 24, 3600, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model.value().IsAvailable(0, 1));
  EXPECT_TRUE(model.value().IsAvailable(0, 2));
  EXPECT_NEAR(model.value().AvailabilityRate(0), 1.0 / 24.0, 1e-12);
}

TEST(AvailabilityModelTest, TripLessSellerStaysReachable) {
  // Taxi 9 has no trips: it gets one fallback bucket rather than never
  // being selectable.
  auto model = AvailabilityModel::FromTrips(MakeTrips(), {9}, 24);
  ASSERT_TRUE(model.ok());
  int available_buckets = 0;
  for (std::int64_t r = 1; r <= 24; ++r) {
    if (model.value().IsAvailable(0, r)) ++available_buckets;
  }
  EXPECT_EQ(available_buckets, 1);
}

TEST(AvailabilityModelTest, SyntheticTraceGivesPartialAvailability) {
  TraceConfig config;
  config.num_taxis = 50;
  config.num_records = 3000;
  config.seed = 19;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  std::vector<std::int64_t> ids;
  for (std::int64_t i = 1; i <= 50; ++i) ids.push_back(i);
  auto model = AvailabilityModel::FromTrips(trace.value().trips, ids, 24);
  ASSERT_TRUE(model.ok());
  // With ~60 trips per taxi spread over 30 days, most taxis are active in
  // many but not all hour buckets.
  double mean_rate = 0.0;
  for (int i = 0; i < 50; ++i) mean_rate += model.value().AvailabilityRate(i);
  mean_rate /= 50.0;
  EXPECT_GT(mean_rate, 0.2);
  EXPECT_LT(mean_rate, 1.0);
}

}  // namespace
}  // namespace trace
}  // namespace cdt
