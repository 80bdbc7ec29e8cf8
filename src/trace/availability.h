// Seller availability model derived from the trip trace. The paper assumes
// every seller can sense in every round; real taxis work shifts. This
// module extracts each taxi's active hours-of-day from its trips and
// exposes a deterministic per-round availability mask (round → hour bucket
// → active?), used by the availability-aware selection extension.

#ifndef CDT_TRACE_AVAILABILITY_H_
#define CDT_TRACE_AVAILABILITY_H_

#include <cstdint>
#include <vector>

#include "trace/trip.h"
#include "util/status.h"

namespace cdt {
namespace trace {

/// Per-seller periodic availability (default: 24 one-hour buckets).
class AvailabilityModel {
 public:
  /// Builds masks for `taxi_ids` (the seller pool, in seller-index order)
  /// from their trips: a seller is available in a bucket iff it has at
  /// least `min_trips` trips whose timestamp falls in that bucket
  /// (mod the period).
  static util::Result<AvailabilityModel> FromTrips(
      const std::vector<TripRecord>& trips,
      const std::vector<std::int64_t>& taxi_ids, int buckets = 24,
      std::int64_t seconds_per_bucket = 3600, int min_trips = 1);

  int num_sellers() const { return static_cast<int>(masks_.size()); }
  int buckets() const { return buckets_; }

  /// Deterministic availability of `seller` in 1-based `round`:
  /// bucket = (round - 1) % buckets.
  bool IsAvailable(int seller, std::int64_t round) const;

  /// Fraction of buckets in which the seller is available.
  double AvailabilityRate(int seller) const;

  const std::vector<std::vector<bool>>& masks() const { return masks_; }

 private:
  AvailabilityModel(std::vector<std::vector<bool>> masks, int buckets)
      : masks_(std::move(masks)), buckets_(buckets) {}

  std::vector<std::vector<bool>> masks_;  // [seller][bucket]
  int buckets_;
};

}  // namespace trace
}  // namespace cdt

#endif  // CDT_TRACE_AVAILABILITY_H_
