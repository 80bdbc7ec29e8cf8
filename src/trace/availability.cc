#include "trace/availability.h"

#include <map>

namespace cdt {
namespace trace {

using util::Result;
using util::Status;

Result<AvailabilityModel> AvailabilityModel::FromTrips(
    const std::vector<TripRecord>& trips,
    const std::vector<std::int64_t>& taxi_ids, int buckets,
    std::int64_t seconds_per_bucket, int min_trips) {
  if (taxi_ids.empty()) {
    return Status::InvalidArgument("need >= 1 taxi id");
  }
  if (buckets <= 0) return Status::InvalidArgument("buckets must be > 0");
  if (seconds_per_bucket <= 0) {
    return Status::InvalidArgument("seconds_per_bucket must be > 0");
  }
  if (min_trips <= 0) {
    return Status::InvalidArgument("min_trips must be > 0");
  }

  std::map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < taxi_ids.size(); ++i) {
    if (index_of.count(taxi_ids[i]) > 0) {
      return Status::InvalidArgument("duplicate taxi id " +
                                     std::to_string(taxi_ids[i]));
    }
    index_of[taxi_ids[i]] = i;
  }

  std::vector<std::vector<int>> counts(
      taxi_ids.size(), std::vector<int>(static_cast<std::size_t>(buckets), 0));
  for (const TripRecord& trip : trips) {
    auto it = index_of.find(trip.taxi_id);
    if (it == index_of.end()) continue;
    std::size_t bucket = static_cast<std::size_t>(
        (trip.timestamp / seconds_per_bucket) %
        static_cast<std::int64_t>(buckets));
    ++counts[it->second][bucket];
  }

  std::vector<std::vector<bool>> masks(
      taxi_ids.size(),
      std::vector<bool>(static_cast<std::size_t>(buckets), false));
  for (std::size_t i = 0; i < taxi_ids.size(); ++i) {
    bool any = false;
    for (std::size_t b = 0; b < static_cast<std::size_t>(buckets); ++b) {
      masks[i][b] = counts[i][b] >= min_trips;
      any = any || masks[i][b];
    }
    // A seller with no qualifying bucket would be unselectable forever;
    // keep it reachable in its single busiest bucket.
    if (!any) {
      std::size_t best = 0;
      for (std::size_t b = 1; b < static_cast<std::size_t>(buckets); ++b) {
        if (counts[i][b] > counts[i][best]) best = b;
      }
      masks[i][best] = true;
    }
  }
  return AvailabilityModel(std::move(masks), buckets);
}

bool AvailabilityModel::IsAvailable(int seller, std::int64_t round) const {
  std::size_t bucket = static_cast<std::size_t>(
      (round - 1) % static_cast<std::int64_t>(buckets_));
  return masks_.at(static_cast<std::size_t>(seller))[bucket];
}

double AvailabilityModel::AvailabilityRate(int seller) const {
  const std::vector<bool>& mask =
      masks_.at(static_cast<std::size_t>(seller));
  int on = 0;
  for (bool b : mask) on += b ? 1 : 0;
  return static_cast<double>(on) / static_cast<double>(mask.size());
}

}  // namespace trace
}  // namespace cdt
