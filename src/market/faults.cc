#include "market/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "stats/rng.h"

namespace cdt {
namespace market {
namespace {

using util::Status;

// Stream tags separating the injector's independent decision channels.
constexpr std::uint64_t kOutcomeStream = 0xFA17'0001ULL;
constexpr std::uint64_t kFractionStream = 0xFA17'0002ULL;
constexpr std::uint64_t kSettlementStream = 0xFA17'0003ULL;
constexpr std::uint64_t kCorruptStream = 0xFA17'0004ULL;

Status CheckRate(double rate, const char* name) {
  if (!(rate >= 0.0) || rate > 1.0) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be a probability in [0, 1]");
  }
  return Status::OK();
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSellerDefault:
      return "default";
    case FaultKind::kCorruptedReport:
      return "corrupt";
    case FaultKind::kPartialDelivery:
      return "partial";
    case FaultKind::kSettlementFailure:
      return "settlement";
    case FaultKind::kQuarantine:
      return "quarantine";
    case FaultKind::kBudgetStop:
      return "budget";
  }
  return "unknown";
}

std::string FaultEvent::ToString() const {
  std::ostringstream os;
  os << "[" << FaultKindName(kind) << "] round " << round;
  if (seller >= 0) os << " seller " << seller;
  if (severity != 0.0) os << " severity=" << severity;
  if (!recovered) os << " UNRECOVERED";
  return os.str();
}

std::string EncodeFaultSummary(const std::vector<FaultEvent>& events) {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ';';
    const FaultEvent& e = events[i];
    os << FaultKindName(e.kind) << ':' << e.seller;
    if (e.severity != 0.0) os << '@' << e.severity;
    if (!e.recovered) os << '!';
  }
  return os.str();
}

bool FaultProfile::any() const {
  return default_rate > 0.0 || corrupt_rate > 0.0 || partial_rate > 0.0 ||
         settlement_failure_rate > 0.0;
}

Status FaultProfile::Validate() const {
  CDT_RETURN_NOT_OK(CheckRate(default_rate, "default_rate"));
  CDT_RETURN_NOT_OK(CheckRate(corrupt_rate, "corrupt_rate"));
  CDT_RETURN_NOT_OK(CheckRate(partial_rate, "partial_rate"));
  CDT_RETURN_NOT_OK(
      CheckRate(settlement_failure_rate, "settlement_failure_rate"));
  if (default_rate + corrupt_rate + partial_rate > 1.0) {
    return Status::InvalidArgument(
        "default_rate + corrupt_rate + partial_rate must not exceed 1");
  }
  if (!(partial_fraction_lo > 0.0) || !(partial_fraction_hi < 1.0) ||
      partial_fraction_lo > partial_fraction_hi) {
    return Status::InvalidArgument(
        "partial fraction bounds must satisfy 0 < lo <= hi < 1");
  }
  if (settlement_failure_rate >= 1.0) {
    return Status::InvalidArgument(
        "settlement_failure_rate must be < 1 or no retry budget can succeed");
  }
  return Status::OK();
}

double FaultInjector::UnitDraw(std::uint64_t stream, std::uint64_t a,
                               std::uint64_t b) const {
  // Two SplitMix64 passes over (seed, stream, a, b). Each key component is
  // pre-whitened so that nearby rounds / seller indices land in unrelated
  // parts of the stream; the outcome depends only on the key, never on how
  // many draws happened before it.
  stats::SplitMix64 mix(profile_.seed ^
                        (stream * 0x9E3779B97F4A7C15ULL));
  std::uint64_t h = mix.Next();
  h ^= (a + 1) * 0xBF58476D1CE4E5B9ULL;
  h ^= (b + 1) * 0x94D049BB133111EBULL;
  stats::SplitMix64 finish(h);
  return static_cast<double>(finish.Next() >> 11) * 0x1.0p-53;
}

SellerFaultDraw FaultInjector::DrawSeller(std::int64_t round,
                                          int seller) const {
  SellerFaultDraw draw;
  const double u = UnitDraw(kOutcomeStream, static_cast<std::uint64_t>(round),
                            static_cast<std::uint64_t>(seller));
  if (u < profile_.default_rate) {
    draw.outcome = DeliveryOutcome::kDefaulted;
    draw.fraction = 0.0;
  } else if (u < profile_.default_rate + profile_.corrupt_rate) {
    draw.outcome = DeliveryOutcome::kCorrupted;
  } else if (u < profile_.default_rate + profile_.corrupt_rate +
                     profile_.partial_rate) {
    draw.outcome = DeliveryOutcome::kPartial;
    const double v =
        UnitDraw(kFractionStream, static_cast<std::uint64_t>(round),
                 static_cast<std::uint64_t>(seller));
    draw.fraction = profile_.partial_fraction_lo +
                    v * (profile_.partial_fraction_hi -
                         profile_.partial_fraction_lo);
  }
  return draw;
}

bool FaultInjector::SettlementAttemptFails(std::int64_t round,
                                           int attempt) const {
  if (profile_.settlement_failure_rate <= 0.0) return false;
  const double u =
      UnitDraw(kSettlementStream, static_cast<std::uint64_t>(round),
               static_cast<std::uint64_t>(attempt));
  return u < profile_.settlement_failure_rate;
}

void FaultInjector::Corrupt(std::int64_t round, int seller,
                            std::vector<double>* observations) const {
  if (observations == nullptr || observations->empty()) return;
  // Cycle through the failure modes a hostile or broken device produces:
  // NaN, overflow, negative readings, and >1 "qualities".
  static const double kPoison[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -0.75, 2.5};
  const std::uint64_t key =
      (static_cast<std::uint64_t>(round) << 20) ^
      static_cast<std::uint64_t>(seller);
  for (std::size_t l = 0; l < observations->size(); ++l) {
    // Always damage the first sample so the batch can never validate.
    if (l != 0 && UnitDraw(kCorruptStream, key, l) < 0.5) continue;
    (*observations)[l] = kPoison[(l + static_cast<std::size_t>(seller)) % 4];
  }
}

bool ValidObservationBatch(const std::vector<double>& observations) {
  for (double q : observations) {
    if (!std::isfinite(q) || q < 0.0 || q > 1.0) return false;
  }
  return true;
}

Status RecoveryOptions::Validate() const {
  if (max_settlement_retries < 0) {
    return Status::InvalidArgument("max_settlement_retries must be >= 0");
  }
  if (!(backoff_initial >= 0.0) || !std::isfinite(backoff_initial)) {
    return Status::InvalidArgument("backoff_initial must be finite and >= 0");
  }
  if (!(backoff_multiplier >= 1.0) || !std::isfinite(backoff_multiplier)) {
    return Status::InvalidArgument("backoff_multiplier must be >= 1");
  }
  if (!(backoff_cap >= backoff_initial) || !std::isfinite(backoff_cap)) {
    return Status::InvalidArgument(
        "backoff_cap must be finite and >= backoff_initial");
  }
  if (quarantine_threshold < 1) {
    return Status::InvalidArgument("quarantine_threshold must be >= 1");
  }
  if (quarantine_cooldown < 1) {
    return Status::InvalidArgument("quarantine_cooldown must be >= 1");
  }
  if (probation_successes < 1) {
    return Status::InvalidArgument("probation_successes must be >= 1");
  }
  return Status::OK();
}

double BackoffDelay(const RecoveryOptions& options, int attempt) {
  double delay = options.backoff_initial;
  for (int i = 0; i < attempt; ++i) {
    delay *= options.backoff_multiplier;
    if (delay >= options.backoff_cap) return options.backoff_cap;
  }
  return std::min(delay, options.backoff_cap);
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kProbation:
      return "probation";
  }
  return "unknown";
}

double SellerReliability::delivery_rate() const {
  const std::int64_t attempts = deliveries + defaults + corruptions;
  if (attempts == 0) return 1.0;
  return static_cast<double>(deliveries) / static_cast<double>(attempts);
}

ReliabilityTracker::ReliabilityTracker(int num_sellers,
                                       RecoveryOptions options)
    : options_(options),
      sellers_(static_cast<std::size_t>(std::max(num_sellers, 0))) {}

bool ReliabilityTracker::Available(int seller, std::int64_t round) const {
  const SellerReliability& s = sellers_.at(static_cast<std::size_t>(seller));
  if (s.state != BreakerState::kOpen) return true;
  return round >= s.opened_round + options_.quarantine_cooldown;
}

void ReliabilityTracker::MaybeEnterProbation(SellerReliability* s,
                                             std::int64_t round) {
  if (s->state == BreakerState::kOpen &&
      round >= s->opened_round + options_.quarantine_cooldown) {
    s->state = BreakerState::kProbation;
    s->probation_progress = 0;
  }
}

void ReliabilityTracker::RecordDelivery(int seller, std::int64_t round,
                                        bool partial) {
  SellerReliability& s = sellers_.at(static_cast<std::size_t>(seller));
  MaybeEnterProbation(&s, round);
  ++s.deliveries;
  if (partial) ++s.partials;
  s.consecutive_faults = 0;
  if (s.state == BreakerState::kProbation) {
    if (++s.probation_progress >= options_.probation_successes) {
      s.state = BreakerState::kClosed;
      s.probation_progress = 0;
    }
  }
}

void ReliabilityTracker::RecordFault(int seller, std::int64_t round,
                                     FaultKind kind) {
  SellerReliability& s = sellers_.at(static_cast<std::size_t>(seller));
  MaybeEnterProbation(&s, round);
  if (kind == FaultKind::kCorruptedReport) {
    ++s.corruptions;
  } else {
    ++s.defaults;
  }
  ++total_faults_;
  ++s.consecutive_faults;
  // A fault on probation trips the breaker immediately; a closed breaker
  // waits for the configured run of consecutive faults.
  const bool trip = s.state == BreakerState::kProbation ||
                    (s.state == BreakerState::kClosed &&
                     s.consecutive_faults >= options_.quarantine_threshold);
  if (trip) {
    s.state = BreakerState::kOpen;
    s.opened_round = round;
    s.probation_progress = 0;
    s.consecutive_faults = 0;
    ++s.times_opened;
    ++total_opened_;
  }
}

void ReliabilityTracker::RecordQuarantineDrop(int seller) {
  ++sellers_.at(static_cast<std::size_t>(seller)).quarantine_drops;
}

Status ReliabilityTracker::Restore(std::vector<SellerReliability> sellers,
                                   std::int64_t total_faults) {
  if (sellers.size() != sellers_.size()) {
    return Status::InvalidArgument(
        "reliability restore seller count mismatch: have " +
        std::to_string(sellers_.size()) + ", snapshot has " +
        std::to_string(sellers.size()));
  }
  if (total_faults < 0) {
    return Status::InvalidArgument("negative total fault count");
  }
  // RecordFault bumps the total with exactly one of defaults/corruptions,
  // so the total must equal their sum. Every term is non-negative, so a
  // running sum that would pass INT64_MAX can never match.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t fault_sum = 0;
  std::int64_t opened_sum = 0;
  for (const SellerReliability& s : sellers) {
    if (s.deliveries < 0 || s.partials < 0 || s.defaults < 0 ||
        s.corruptions < 0 || s.quarantine_drops < 0 || s.times_opened < 0 ||
        s.consecutive_faults < 0 || s.probation_progress < 0 ||
        s.opened_round < 0) {
      return Status::InvalidArgument("negative reliability counter");
    }
    if (s.defaults > kMax - fault_sum ||
        s.corruptions > kMax - fault_sum - s.defaults ||
        s.times_opened > kMax - opened_sum) {
      return Status::InvalidArgument("reliability counters overflow int64");
    }
    fault_sum += s.defaults + s.corruptions;
    opened_sum += s.times_opened;
  }
  if (fault_sum != total_faults) {
    return Status::InvalidArgument(
        "restored total_faults disagrees with per-seller counters: " +
        std::to_string(total_faults) + " vs " + std::to_string(fault_sum));
  }
  sellers_ = std::move(sellers);
  total_faults_ = total_faults;
  total_opened_ = opened_sum;
  return Status::OK();
}

int ReliabilityTracker::QuarantinedCount(std::int64_t round) const {
  int count = 0;
  for (int i = 0; i < num_sellers(); ++i) {
    if (!Available(i, round)) ++count;
  }
  return count;
}

bandit::AvailabilityFn QuarantineAvailability(
    const ReliabilityTracker* tracker) {
  return [tracker](int seller, std::int64_t round) {
    return tracker->Available(seller, round);
  };
}

}  // namespace market
}  // namespace cdt
