#include "persist/serialize.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <string_view>

#include "market/faults.h"

namespace cdt {
namespace persist {

using util::Status;

// --- MechanismConfig ----------------------------------------------------

void EncodeMechanismConfig(const core::MechanismConfig& config,
                           std::string* out) {
  // Scale.
  PutZigzag64(out, config.num_sellers);
  PutZigzag64(out, config.num_selected);
  PutZigzag64(out, config.num_pois);
  PutZigzag64(out, config.num_rounds);
  // Quality environment.
  PutDouble(out, config.observation_stddev);
  PutDouble(out, config.quality_lo);
  PutDouble(out, config.quality_hi);
  // Economics.
  PutDouble(out, config.seller_a_lo);
  PutDouble(out, config.seller_a_hi);
  PutDouble(out, config.seller_b_lo);
  PutDouble(out, config.seller_b_hi);
  PutDouble(out, config.theta);
  PutDouble(out, config.lambda);
  PutDouble(out, config.omega);
  PutDouble(out, config.consumer_price_min);
  PutDouble(out, config.consumer_price_max);
  PutDouble(out, config.collection_price_min);
  PutDouble(out, config.collection_price_max);
  PutDouble(out, config.round_duration);
  PutDouble(out, config.initial_tau);
  // Mechanism knobs.
  PutDouble(out, config.exploration);
  PutBool(out, config.select_all_first_round);
  PutDouble(out, config.quality_floor);
  // Once a transfer-history flag; always 0 now, and ignored when read.
  PutByte(out, 0);
  PutBool(out, config.check_invariants);
  PutDouble(out, config.consumer_budget);
  // Fault profile.
  PutDouble(out, config.faults.default_rate);
  PutDouble(out, config.faults.corrupt_rate);
  PutDouble(out, config.faults.partial_rate);
  PutDouble(out, config.faults.partial_fraction_lo);
  PutDouble(out, config.faults.partial_fraction_hi);
  PutDouble(out, config.faults.settlement_failure_rate);
  PutFixed64(out, config.faults.seed);
  // Recovery options.
  PutZigzag64(out, config.recovery.max_settlement_retries);
  PutDouble(out, config.recovery.backoff_initial);
  PutDouble(out, config.recovery.backoff_multiplier);
  PutDouble(out, config.recovery.backoff_cap);
  PutZigzag64(out, config.recovery.quarantine_threshold);
  PutZigzag64(out, config.recovery.quarantine_cooldown);
  PutZigzag64(out, config.recovery.probation_successes);
  // Master seed.
  PutFixed64(out, config.seed);
}

namespace {

Status ReadInt(ByteReader* in, int* value, const char* what) {
  std::int64_t v;
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&v));
  if (v < INT32_MIN || v > INT32_MAX) {
    return Status::ParseError(std::string(what) + " overflows int32");
  }
  *value = static_cast<int>(v);
  return Status::OK();
}

}  // namespace

Status DecodeMechanismConfig(ByteReader* in, core::MechanismConfig* config) {
  CDT_RETURN_NOT_OK(ReadInt(in, &config->num_sellers, "num_sellers"));
  CDT_RETURN_NOT_OK(ReadInt(in, &config->num_selected, "num_selected"));
  CDT_RETURN_NOT_OK(ReadInt(in, &config->num_pois, "num_pois"));
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&config->num_rounds));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->observation_stddev));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->quality_lo));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->quality_hi));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->seller_a_lo));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->seller_a_hi));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->seller_b_lo));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->seller_b_hi));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->theta));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->lambda));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->omega));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->consumer_price_min));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->consumer_price_max));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->collection_price_min));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->collection_price_max));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->round_duration));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->initial_tau));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->exploration));
  CDT_RETURN_NOT_OK(in->ReadBool(&config->select_all_first_round));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->quality_floor));
  bool legacy_history_flag;
  CDT_RETURN_NOT_OK(in->ReadBool(&legacy_history_flag));
  CDT_RETURN_NOT_OK(in->ReadBool(&config->check_invariants));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->consumer_budget));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->faults.default_rate));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->faults.corrupt_rate));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->faults.partial_rate));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->faults.partial_fraction_lo));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->faults.partial_fraction_hi));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->faults.settlement_failure_rate));
  CDT_RETURN_NOT_OK(in->ReadFixed64(&config->faults.seed));
  CDT_RETURN_NOT_OK(
      ReadInt(in, &config->recovery.max_settlement_retries, "retries"));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->recovery.backoff_initial));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->recovery.backoff_multiplier));
  CDT_RETURN_NOT_OK(in->ReadDouble(&config->recovery.backoff_cap));
  CDT_RETURN_NOT_OK(
      ReadInt(in, &config->recovery.quarantine_threshold, "threshold"));
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&config->recovery.quarantine_cooldown));
  CDT_RETURN_NOT_OK(
      ReadInt(in, &config->recovery.probation_successes, "probation"));
  CDT_RETURN_NOT_OK(in->ReadFixed64(&config->seed));
  return Status::OK();
}

// --- PolicySpec ---------------------------------------------------------

void EncodePolicySpec(const core::PolicySpec& spec, std::string* out) {
  PutByte(out, static_cast<std::uint8_t>(spec.kind));
  PutDouble(out, spec.epsilon);
}

Status DecodePolicySpec(ByteReader* in, core::PolicySpec* spec) {
  std::uint8_t kind = 0;
  CDT_RETURN_NOT_OK(in->ReadByte(&kind));
  if (kind > static_cast<std::uint8_t>(core::PolicyKind::kThompson)) {
    return Status::ParseError("unknown policy kind byte");
  }
  spec->kind = static_cast<core::PolicyKind>(kind);
  CDT_RETURN_NOT_OK(in->ReadDouble(&spec->epsilon));
  return Status::OK();
}

// --- RoundReport --------------------------------------------------------

namespace {

void EncodeFaultEvent(const market::FaultEvent& event, std::string* out) {
  PutZigzag64(out, event.round);
  PutByte(out, static_cast<std::uint8_t>(event.kind));
  PutZigzag64(out, event.seller);
  PutDouble(out, event.severity);
  PutBool(out, event.recovered);
}

Status DecodeFaultEvent(ByteReader* in, market::FaultEvent* event) {
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&event->round));
  std::uint8_t kind = 0;
  CDT_RETURN_NOT_OK(in->ReadByte(&kind));
  if (kind >= market::kNumFaultKinds) {
    return Status::ParseError("unknown fault kind byte");
  }
  event->kind = static_cast<market::FaultKind>(kind);
  CDT_RETURN_NOT_OK(ReadInt(in, &event->seller, "fault seller"));
  CDT_RETURN_NOT_OK(in->ReadDouble(&event->severity));
  CDT_RETURN_NOT_OK(in->ReadBool(&event->recovered));
  return Status::OK();
}

}  // namespace

void EncodeRoundReport(const market::RoundReport& report, std::string* out) {
  PutZigzag64(out, report.round);
  PutBool(out, report.initial_exploration);
  PutIntVector(out, report.selected);
  PutDoubleVector(out, report.game_qualities);
  PutDouble(out, report.consumer_price);
  PutDouble(out, report.collection_price);
  PutDoubleVector(out, report.tau);
  PutDouble(out, report.total_time);
  PutDouble(out, report.consumer_profit);
  PutDouble(out, report.platform_profit);
  PutDoubleVector(out, report.seller_profits);
  PutDouble(out, report.seller_profit_total);
  PutDouble(out, report.expected_quality_revenue);
  PutDouble(out, report.observed_quality_revenue);
  PutBool(out, report.degraded);
  PutBool(out, report.resettled);
  PutBool(out, report.voided);
  PutDoubleVector(out, report.contracted_tau);
  PutVarint64(out, report.faults.size());
  for (const market::FaultEvent& event : report.faults) {
    EncodeFaultEvent(event, out);
  }
  PutZigzag64(out, report.settlement_attempts);
  PutDouble(out, report.settlement_backoff);
}

Status DecodeRoundReport(ByteReader* in, market::RoundReport* report) {
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&report->round));
  CDT_RETURN_NOT_OK(in->ReadBool(&report->initial_exploration));
  CDT_RETURN_NOT_OK(in->ReadIntVector(&report->selected));
  CDT_RETURN_NOT_OK(in->ReadDoubleVector(&report->game_qualities));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->consumer_price));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->collection_price));
  CDT_RETURN_NOT_OK(in->ReadDoubleVector(&report->tau));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->total_time));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->consumer_profit));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->platform_profit));
  CDT_RETURN_NOT_OK(in->ReadDoubleVector(&report->seller_profits));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->seller_profit_total));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->expected_quality_revenue));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->observed_quality_revenue));
  CDT_RETURN_NOT_OK(in->ReadBool(&report->degraded));
  CDT_RETURN_NOT_OK(in->ReadBool(&report->resettled));
  CDT_RETURN_NOT_OK(in->ReadBool(&report->voided));
  CDT_RETURN_NOT_OK(in->ReadDoubleVector(&report->contracted_tau));
  std::uint64_t fault_count;
  CDT_RETURN_NOT_OK(in->ReadVarint64(&fault_count));
  // A serialized FaultEvent is at least 12 bytes.
  if (fault_count > in->remaining() / 12) {
    return Status::ParseError("fault event count exceeds payload");
  }
  report->faults.clear();
  report->faults.reserve(static_cast<std::size_t>(fault_count));
  for (std::uint64_t i = 0; i < fault_count; ++i) {
    market::FaultEvent event;
    CDT_RETURN_NOT_OK(DecodeFaultEvent(in, &event));
    report->faults.push_back(event);
  }
  CDT_RETURN_NOT_OK(
      ReadInt(in, &report->settlement_attempts, "settlement_attempts"));
  CDT_RETURN_NOT_OK(in->ReadDouble(&report->settlement_backoff));
  return Status::OK();
}

// --- EngineSnapshot -----------------------------------------------------

namespace {

// A snapshot is encoded in two passes over one field walk
// (EncodeSnapshotFields): SizeSink counts its bytes, then CursorSink writes
// them through a raw cursor into space reserved once. Both emit exactly
// the bytes of the Put* forms in codec.h.
class SizeSink {
 public:
  void Varint(std::uint64_t value) { size_ += VarintSize(value); }
  void Zigzag(std::int64_t value) { Varint(ZigzagEncode(value)); }
  void Fixed64(std::uint64_t) { size_ += 8; }
  void Double(double) { size_ += 8; }
  void Byte(std::uint8_t) { ++size_; }
  void Bytes(std::string_view bytes) { size_ += bytes.size(); }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

class CursorSink {
 public:
  explicit CursorSink(char* cursor) : cursor_(cursor) {}
  void Varint(std::uint64_t value) { cursor_ = PutVarint64At(cursor_, value); }
  void Zigzag(std::int64_t value) { Varint(ZigzagEncode(value)); }
  void Fixed64(std::uint64_t value) { cursor_ = PutFixed64At(cursor_, value); }
  void Double(double value) { Fixed64(std::bit_cast<std::uint64_t>(value)); }
  void Byte(std::uint8_t value) { *cursor_++ = static_cast<char>(value); }
  void Bytes(std::string_view bytes) {
    std::memcpy(cursor_, bytes.data(), bytes.size());
    cursor_ += bytes.size();
  }
  char* cursor() const { return cursor_; }

 private:
  char* cursor_;
};

template <typename Sink>
void EncodeArms(const market::EngineSnapshotView& snapshot, Sink& out) {
  const std::size_t count = snapshot.arm_means.size();
  out.Varint(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.Varint(snapshot.arm_observations[i]);
    out.Double(snapshot.arm_means[i]);
  }
  out.Varint(snapshot.pricing_total_observations);
}

Status DecodeArms(ByteReader* in, std::vector<bandit::ArmState>* arms,
                  std::uint64_t* total) {
  std::uint64_t count;
  CDT_RETURN_NOT_OK(in->ReadVarint64(&count));
  // Each serialized arm is at least 9 bytes (1-byte varint + fixed64).
  if (count > in->remaining() / 9) {
    return Status::ParseError("arm count exceeds payload");
  }
  arms->clear();
  arms->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    bandit::ArmState arm;
    CDT_RETURN_NOT_OK(in->ReadVarint64(&arm.observations));
    CDT_RETURN_NOT_OK(in->ReadDouble(&arm.mean));
    arms->push_back(arm);
  }
  return in->ReadVarint64(total);
}

template <typename Sink>
void EncodeReliability(const market::SellerReliability& seller, Sink& out) {
  out.Zigzag(seller.deliveries);
  out.Zigzag(seller.partials);
  out.Zigzag(seller.defaults);
  out.Zigzag(seller.corruptions);
  out.Zigzag(seller.quarantine_drops);
  out.Zigzag(seller.times_opened);
  out.Zigzag(seller.consecutive_faults);
  out.Zigzag(seller.probation_progress);
  out.Byte(static_cast<std::uint8_t>(seller.state));
  out.Zigzag(seller.opened_round);
}

Status DecodeReliability(ByteReader* in, market::SellerReliability* seller) {
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&seller->deliveries));
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&seller->partials));
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&seller->defaults));
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&seller->corruptions));
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&seller->quarantine_drops));
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&seller->times_opened));
  CDT_RETURN_NOT_OK(
      ReadInt(in, &seller->consecutive_faults, "consecutive_faults"));
  CDT_RETURN_NOT_OK(
      ReadInt(in, &seller->probation_progress, "probation_progress"));
  std::uint8_t state = 0;
  CDT_RETURN_NOT_OK(in->ReadByte(&state));
  if (state > static_cast<std::uint8_t>(market::BreakerState::kProbation)) {
    return Status::ParseError("unknown breaker state byte");
  }
  seller->state = static_cast<market::BreakerState>(state);
  return in->ReadZigzag64(&seller->opened_round);
}

template <typename Sink>
void EncodeSnapshotFields(const market::EngineSnapshotView& snapshot,
                          Sink& out) {
  out.Zigzag(snapshot.next_round);
  out.Byte(snapshot.budget_exhausted ? 1 : 0);
  // The old consumer-spend slot: it always equalled the ledger outflow.
  out.Double(snapshot.ledger_consumer_outflow);
  // The arms once, then a flag byte 0: the layout every version-1 reader
  // accepts. DecodeEngineSnapshot also reads flag 1, a second copy of the
  // arms that older writers appended under CUCB.
  EncodeArms(snapshot, out);
  out.Byte(0);
  out.Varint(snapshot.ledger_balances.size());
  for (double balance : snapshot.ledger_balances) out.Double(balance);
  out.Double(snapshot.ledger_consumer_outflow);
  out.Double(snapshot.ledger_seller_inflow);
  out.Varint(0);  // the old transfer-history count, always empty
  out.Varint(snapshot.reliability.size());
  for (const market::SellerReliability& seller : snapshot.reliability) {
    EncodeReliability(seller, out);
  }
  out.Zigzag(snapshot.reliability_total_faults);
  for (std::int64_t count : snapshot.fault_counts) out.Zigzag(count);
  for (std::uint64_t word : snapshot.environment.rng_state) out.Fixed64(word);
  const bandit::EnvironmentStateView& environment = snapshot.environment;
  out.Varint(environment.has_spare.size());
  for (std::size_t i = 0; i < environment.has_spare.size(); ++i) {
    out.Byte(environment.has_spare[i]);
  }
  out.Varint(environment.spare.size());
  for (std::size_t i = 0; i < environment.spare.size(); ++i) {
    out.Double(environment.spare[i]);
  }
  // Optional tail: the seller-departure bitmap (runtime seller-leave
  // events). Omitted entirely when every seller is active, so snapshots
  // from runs that never saw a departure keep the original byte layout
  // and pre-overlay snapshots decode unchanged.
  if (!snapshot.seller_active.empty()) {
    out.Varint(snapshot.seller_active.size());
    for (std::uint8_t flag : snapshot.seller_active) out.Byte(flag);
  }
}

}  // namespace

std::size_t EngineSnapshotSize(const market::EngineSnapshotView& snapshot) {
  SizeSink size;
  EncodeSnapshotFields(snapshot, size);
  return size.size();
}

char* EncodeEngineSnapshotAt(const market::EngineSnapshotView& snapshot,
                             char* cursor) {
  CursorSink out(cursor);
  EncodeSnapshotFields(snapshot, out);
  return out.cursor();
}

void EncodeEngineSnapshot(const market::EngineSnapshotView& snapshot,
                          std::string* out) {
  const std::size_t at = out->size();
  out->resize(at + EngineSnapshotSize(snapshot));
  EncodeEngineSnapshotAt(snapshot, out->data() + at);
}

Status DecodeEngineSnapshot(ByteReader* in,
                            market::EngineSnapshot* snapshot) {
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&snapshot->next_round));
  CDT_RETURN_NOT_OK(in->ReadBool(&snapshot->budget_exhausted));
  double spend_slot = 0.0;
  CDT_RETURN_NOT_OK(in->ReadDouble(&spend_slot));
  CDT_RETURN_NOT_OK(DecodeArms(in, &snapshot->pricing_arms,
                               &snapshot->pricing_total_observations));
  bool legacy_copy = false;
  CDT_RETURN_NOT_OK(in->ReadBool(&legacy_copy));
  if (legacy_copy) {
    // A snapshot an older writer took under CUCB: the policy's bank was
    // the pricing bank, so its section must repeat the first exactly.
    std::vector<bandit::ArmState> arms;
    std::uint64_t total;
    CDT_RETURN_NOT_OK(DecodeArms(in, &arms, &total));
    if (arms != snapshot->pricing_arms ||
        total != snapshot->pricing_total_observations) {
      return Status::ParseError(
          "legacy policy-arms section differs from the pricing arms");
    }
  }
  CDT_RETURN_NOT_OK(in->ReadDoubleVector(&snapshot->ledger_balances));
  CDT_RETURN_NOT_OK(in->ReadDouble(&snapshot->ledger_consumer_outflow));
  CDT_RETURN_NOT_OK(in->ReadDouble(&snapshot->ledger_seller_inflow));
  // Writers kept the consumer's spend apart from the ledger outflow and
  // could append a transfer history. Neither survives: a spend that is not
  // the outflow's exact bits, or a non-empty history, is refused.
  if (std::bit_cast<std::uint64_t>(spend_slot) !=
      std::bit_cast<std::uint64_t>(snapshot->ledger_consumer_outflow)) {
    return Status::ParseError(
        "snapshot consumer spend differs from its ledger outflow");
  }
  std::uint64_t transfer_count;
  CDT_RETURN_NOT_OK(in->ReadVarint64(&transfer_count));
  if (transfer_count != 0) {
    return Status::ParseError("snapshot carries a transfer history");
  }
  std::uint64_t seller_count;
  CDT_RETURN_NOT_OK(in->ReadVarint64(&seller_count));
  // A serialized SellerReliability is at least 10 bytes.
  if (seller_count > in->remaining() / 10) {
    return Status::ParseError("reliability count exceeds payload");
  }
  snapshot->reliability.clear();
  snapshot->reliability.reserve(static_cast<std::size_t>(seller_count));
  for (std::uint64_t i = 0; i < seller_count; ++i) {
    market::SellerReliability seller;
    CDT_RETURN_NOT_OK(DecodeReliability(in, &seller));
    snapshot->reliability.push_back(seller);
  }
  CDT_RETURN_NOT_OK(in->ReadZigzag64(&snapshot->reliability_total_faults));
  for (std::int64_t& count : snapshot->fault_counts) {
    CDT_RETURN_NOT_OK(in->ReadZigzag64(&count));
  }
  for (std::uint64_t& word : snapshot->environment.rng_state) {
    CDT_RETURN_NOT_OK(in->ReadFixed64(&word));
  }
  std::uint64_t spare_count;
  CDT_RETURN_NOT_OK(in->ReadVarint64(&spare_count));
  if (spare_count > in->remaining()) {
    return Status::ParseError("spare flag count exceeds payload");
  }
  snapshot->environment.has_spare.clear();
  snapshot->environment.has_spare.reserve(
      static_cast<std::size_t>(spare_count));
  for (std::uint64_t i = 0; i < spare_count; ++i) {
    std::uint8_t flag;
    CDT_RETURN_NOT_OK(in->ReadByte(&flag));
    if (flag > 1) return Status::ParseError("spare flag byte not 0/1");
    snapshot->environment.has_spare.push_back(flag);
  }
  CDT_RETURN_NOT_OK(in->ReadDoubleVector(&snapshot->environment.spare));
  // Optional tail (see EncodeEngineSnapshot): absent in pre-overlay
  // snapshots and in snapshots with every seller active.
  snapshot->seller_active.clear();
  if (!in->empty()) {
    std::uint64_t active_count;
    CDT_RETURN_NOT_OK(in->ReadVarint64(&active_count));
    if (active_count > in->remaining()) {
      return Status::ParseError("seller-activity count exceeds payload");
    }
    snapshot->seller_active.reserve(static_cast<std::size_t>(active_count));
    for (std::uint64_t i = 0; i < active_count; ++i) {
      std::uint8_t flag;
      CDT_RETURN_NOT_OK(in->ReadByte(&flag));
      if (flag > 1) return Status::ParseError("activity flag byte not 0/1");
      snapshot->seller_active.push_back(flag);
    }
  }
  return Status::OK();
}

}  // namespace persist
}  // namespace cdt
