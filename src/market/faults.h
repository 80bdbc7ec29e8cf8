// Fault injection and graceful degradation for the CDT trading pipeline.
//
// The paper's mechanism assumes every selected seller delivers its Stage-3
// sensing time; real crowdsensing markets face dropouts, corrupted reports
// and flaky settlement. This module provides
//
//   * FaultInjector — a deterministic, seeded source of per-round faults:
//     seller defaults (commit then fail to deliver), corrupted quality
//     reports (non-finite / out-of-range samples), partial delivery
//     (τ_delivered < τ*), and transient settlement failures. Draws are
//     stateless functions of (seed, round, seller), so outcomes never
//     depend on coalition composition or call order and a fault-free
//     profile leaves a run bit-for-bit identical to an uninjected one.
//
//   * RecoveryOptions + ReliabilityTracker — the engine-side degradation
//     policy: capped exponential settlement backoff and a per-seller
//     circuit breaker (closed → open after a run of consecutive faults →
//     cooldown → probation re-entry → closed) whose gate plugs into the
//     existing bandit::AvailabilityFn machinery via QuarantineAvailability.
//
// TradingEngine consumes both: it re-settles faulted rounds on the
// delivered coalition (re-solving Stage 2/3 over the survivors so the
// Theorem 14-16 stationarity invariants keep holding), pro-rates payment
// for partial delivery, and records only genuinely observed qualities so
// bandit estimates stay unbiased. See docs/ROBUSTNESS.md.

#ifndef CDT_MARKET_FAULTS_H_
#define CDT_MARKET_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bandit/availability_policy.h"
#include "util/status.h"

namespace cdt {
namespace market {

/// Families of fault / degradation events recorded by the engine.
enum class FaultKind {
  kSellerDefault,      // committed seller delivered nothing
  kCorruptedReport,    // delivered data failed validation, discarded
  kPartialDelivery,    // delivered τ = fraction · τ* for fraction < 1
  kSettlementFailure,  // transient settlement failure (retried)
  kQuarantine,         // circuit breaker dropped the seller pre-game
  kBudgetStop,         // consumer budget ended the campaign early
};
constexpr int kNumFaultKinds = 6;

/// "default", "corrupt", "partial", "settlement", "quarantine", "budget".
const char* FaultKindName(FaultKind kind);

/// One structured fault/recovery record, kept per round in
/// RoundReport::faults and cumulatively in TradingEngine::fault_log().
struct FaultEvent {
  std::int64_t round = 0;
  FaultKind kind = FaultKind::kSellerDefault;
  /// Affected seller; -1 for round-level events (settlement, budget).
  int seller = -1;
  /// Kind-specific magnitude: delivered fraction for partial delivery,
  /// failed-attempt count for settlement, unspent budget for budget stop.
  double severity = 0.0;
  /// False when recovery could not absorb the fault (round voided).
  bool recovered = true;

  /// "[partial] round 7 seller 3 severity=0.42".
  std::string ToString() const;
};

/// Joins events as "kind:seller@severity" (';'-separated, '!' marks an
/// unrecovered event) — the compact run-log encoding.
std::string EncodeFaultSummary(const std::vector<FaultEvent>& events);

/// Per-seller-per-round fault outcomes drawn by the injector.
enum class DeliveryOutcome { kDelivered, kDefaulted, kCorrupted, kPartial };

struct SellerFaultDraw {
  DeliveryOutcome outcome = DeliveryOutcome::kDelivered;
  /// Delivered fraction of τ* in (0, 1); only meaningful for kPartial.
  double fraction = 1.0;
};

/// Fault rates; all zero (the default) disables injection entirely.
struct FaultProfile {
  /// P(a selected seller defaults) per round.
  double default_rate = 0.0;
  /// P(a delivered batch is corrupted) per round.
  double corrupt_rate = 0.0;
  /// P(a seller delivers only a fraction of τ*) per round.
  double partial_rate = 0.0;
  /// Delivered fraction for partial faults, uniform in [lo, hi] ⊂ (0, 1).
  double partial_fraction_lo = 0.25;
  double partial_fraction_hi = 0.75;
  /// P(one settlement attempt fails); retried per RecoveryOptions.
  double settlement_failure_rate = 0.0;
  /// Fault stream seed, independent of the environment/policy streams.
  std::uint64_t seed = 0x0FA01;

  /// True when any rate is positive (injection armed).
  bool any() const;
  util::Status Validate() const;
};

/// Deterministic fault source. Every draw is a pure function of
/// (profile.seed, round, seller), so injection is reproducible and
/// independent of the engine's other randomness.
class FaultInjector {
 public:
  /// `profile` must already be validated.
  explicit FaultInjector(FaultProfile profile) : profile_(profile) {}

  const FaultProfile& profile() const { return profile_; }

  /// The seller's delivery outcome for the round.
  SellerFaultDraw DrawSeller(std::int64_t round, int seller) const;

  /// Whether settlement attempt `attempt` (0-based) of `round` fails.
  bool SettlementAttemptFails(std::int64_t round, int attempt) const;

  /// Damages an observation batch in place (non-finite and out-of-range
  /// entries) so downstream validation must reject it.
  void Corrupt(std::int64_t round, int seller,
               std::vector<double>* observations) const;

 private:
  /// Uniform [0, 1) draw keyed by (stream, a, b).
  double UnitDraw(std::uint64_t stream, std::uint64_t a, std::uint64_t b)
      const;

  FaultProfile profile_;
};

/// True when every sample is finite and within [0, 1] — the engine's
/// acceptance test for a delivered quality report.
bool ValidObservationBatch(const std::vector<double>& observations);

/// Engine-side degradation knobs.
struct RecoveryOptions {
  /// Settlement retries after the first failed attempt.
  int max_settlement_retries = 4;
  /// Capped exponential backoff between settlement attempts (simulated
  /// seconds; the engine accounts, it does not sleep).
  double backoff_initial = 0.5;
  double backoff_multiplier = 2.0;
  double backoff_cap = 4.0;
  /// Consecutive faults that open a seller's circuit breaker.
  int quarantine_threshold = 3;
  /// Rounds the breaker stays open before probation re-entry.
  std::int64_t quarantine_cooldown = 25;
  /// Clean deliveries on probation required to close the breaker.
  int probation_successes = 2;

  util::Status Validate() const;
};

/// Backoff before retry `attempt` (0-based): min(cap, initial · mult^attempt).
double BackoffDelay(const RecoveryOptions& options, int attempt);

/// Circuit-breaker state of one seller.
enum class BreakerState { kClosed, kOpen, kProbation };
const char* BreakerStateName(BreakerState state);

/// Per-seller reliability statistics plus breaker state.
struct SellerReliability {
  std::int64_t deliveries = 0;        // full + partial deliveries
  std::int64_t partials = 0;          // partial-delivery subset
  std::int64_t defaults = 0;
  std::int64_t corruptions = 0;
  std::int64_t quarantine_drops = 0;  // selections vetoed by the breaker
  std::int64_t times_opened = 0;      // breaker open transitions
  int consecutive_faults = 0;
  int probation_progress = 0;
  BreakerState state = BreakerState::kClosed;
  /// Round of the most recent open transition.
  std::int64_t opened_round = 0;

  /// deliveries / (deliveries + defaults + corruptions); 1 when unseen.
  double delivery_rate() const;
};

/// Tracks every seller's reliability and drives the quarantine breaker.
/// Owned by the engine by default; construct one externally and hand it to
/// EngineConfig::reliability to share the gate with a selection policy.
class ReliabilityTracker {
 public:
  /// `options` must already be validated.
  ReliabilityTracker(int num_sellers, RecoveryOptions options);

  int num_sellers() const { return static_cast<int>(sellers_.size()); }
  const RecoveryOptions& options() const { return options_; }
  const SellerReliability& seller(int i) const { return sellers_.at(i); }

  /// Breaker gate: false while the seller's breaker is open and the
  /// cooldown has not elapsed by `round`. Probation sellers are available.
  bool Available(int seller, std::int64_t round) const;

  /// A clean (or partial) delivery in `round`; advances probation and
  /// resets the consecutive-fault run.
  void RecordDelivery(int seller, std::int64_t round, bool partial);

  /// A default or corruption in `round`; may open (or re-open) the breaker.
  void RecordFault(int seller, std::int64_t round, FaultKind kind);

  /// The engine dropped the seller from a coalition via the breaker gate.
  void RecordQuarantineDrop(int seller);

  std::int64_t total_faults() const { return total_faults_; }
  /// Breaker open transitions summed over all sellers (Σ times_opened).
  std::int64_t total_opened() const { return total_opened_; }

  /// Full per-seller state, for snapshot capture.
  const std::vector<SellerReliability>& sellers() const { return sellers_; }

  /// Restores a previously captured tracker state (snapshot/replay).
  /// Fails with kInvalidArgument, leaving the tracker untouched, on a
  /// negative counter or a `total_faults` other than Σ(defaults +
  /// corruptions).
  util::Status Restore(std::vector<SellerReliability> sellers,
                       std::int64_t total_faults);

  /// Sellers whose breaker is open and still cooling down at `round`.
  int QuarantinedCount(std::int64_t round) const;

 private:
  /// Open → probation once the cooldown has elapsed.
  void MaybeEnterProbation(SellerReliability* s, std::int64_t round);

  RecoveryOptions options_;
  std::vector<SellerReliability> sellers_;
  std::int64_t total_faults_ = 0;
  std::int64_t total_opened_ = 0;
};

/// Adapts the breaker gate into the bandit layer's availability shape so an
/// AvailabilityAwareCucbPolicy never proposes a quarantined seller in the
/// first place. `tracker` must outlive the returned function.
bandit::AvailabilityFn QuarantineAvailability(
    const ReliabilityTracker* tracker);

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_FAULTS_H_
