#include "core/config.h"

#include "stats/rng.h"

namespace cdt {
namespace core {

using util::Status;

Status MechanismConfig::Validate() const {
  if (num_sellers <= 0) {
    return Status::InvalidArgument("num_sellers must be > 0");
  }
  if (num_selected <= 0 || num_selected > num_sellers) {
    return Status::InvalidArgument("need 1 <= K <= M");
  }
  if (num_pois <= 0) return Status::InvalidArgument("num_pois must be > 0");
  if (num_rounds <= 0) {
    return Status::InvalidArgument("num_rounds must be > 0");
  }
  if (observation_stddev <= 0.0) {
    return Status::InvalidArgument("observation_stddev must be > 0");
  }
  if (quality_lo < 0.0 || quality_hi > 1.0 || quality_lo >= quality_hi) {
    return Status::InvalidArgument("quality range must be within [0, 1]");
  }
  if (seller_a_lo <= 0.0 || seller_a_lo > seller_a_hi) {
    return Status::InvalidArgument("invalid seller a range");
  }
  if (seller_b_lo < 0.0 || seller_b_lo > seller_b_hi) {
    return Status::InvalidArgument("invalid seller b range");
  }
  if (theta <= 0.0 || lambda < 0.0) {
    return Status::InvalidArgument("need theta > 0, lambda >= 0");
  }
  if (omega <= 1.0) return Status::InvalidArgument("need omega > 1");
  if (consumer_price_min <= 0.0 ||
      consumer_price_min > consumer_price_max) {
    return Status::InvalidArgument("invalid consumer price bounds");
  }
  if (collection_price_min <= 0.0 ||
      collection_price_min > collection_price_max) {
    return Status::InvalidArgument("invalid collection price bounds");
  }
  if (round_duration <= 0.0 || initial_tau <= 0.0 ||
      initial_tau > round_duration) {
    return Status::InvalidArgument("need 0 < initial_tau <= round_duration");
  }
  if (quality_floor <= 0.0 || quality_floor > 1.0) {
    return Status::InvalidArgument("quality_floor must lie in (0, 1]");
  }
  if (consumer_budget < 0.0) {
    return Status::InvalidArgument("consumer_budget must be >= 0");
  }
  CDT_RETURN_NOT_OK(faults.Validate());
  CDT_RETURN_NOT_OK(recovery.Validate());
  return Status::OK();
}

bandit::EnvironmentConfig MechanismConfig::MakeEnvironmentConfig() const {
  bandit::EnvironmentConfig env;
  env.num_sellers = num_sellers;
  env.num_pois = num_pois;
  env.observation_stddev = observation_stddev;
  env.quality_lo = quality_lo;
  env.quality_hi = quality_hi;
  // Offset keeps the quality stream independent of the cost stream below.
  env.seed = seed;
  return env;
}

std::vector<game::SellerCostParams> MechanismConfig::MakeSellerCosts() const {
  stats::Xoshiro256 rng(seed ^ 0xC057C057C057C057ULL);
  std::vector<game::SellerCostParams> costs(
      static_cast<std::size_t>(num_sellers));
  for (game::SellerCostParams& c : costs) {
    c.a = rng.NextDouble(seller_a_lo, seller_a_hi);
    c.b = rng.NextDouble(seller_b_lo, seller_b_hi);
  }
  return costs;
}

market::EngineConfig MechanismConfig::MakeEngineConfig() const {
  market::EngineConfig engine;
  engine.job.num_pois = num_pois;
  engine.job.num_rounds = num_rounds;
  engine.job.round_duration = round_duration;
  engine.job.description = "crowdsensing data collection";
  engine.num_selected = num_selected;
  engine.seller_costs = MakeSellerCosts();
  engine.platform_cost.theta = theta;
  engine.platform_cost.lambda = lambda;
  engine.valuation.omega = omega;
  engine.consumer_price_bounds = {consumer_price_min, consumer_price_max};
  engine.collection_price_bounds = {collection_price_min,
                                    collection_price_max};
  engine.initial_tau = initial_tau;
  engine.quality_floor = quality_floor;
  engine.check_invariants = check_invariants;
  engine.consumer_budget = consumer_budget;
  engine.faults = faults;
  engine.recovery = recovery;
  // Tie the fault stream to the master seed (distinct from the quality and
  // cost streams) unless the profile carries an explicit override.
  if (engine.faults.seed == market::FaultProfile{}.seed) {
    engine.faults.seed = seed ^ 0xFA017FA017FA017FULL;
  }
  return engine;
}

}  // namespace core
}  // namespace cdt
