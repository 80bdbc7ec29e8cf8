#include "support/reference_snapshot_codec.h"

#include "persist/codec.h"
#include "persist/event_log.h"

namespace cdt {
namespace testsupport {

namespace {

using namespace persist;

void EncodeArms(const std::vector<bandit::ArmState>& arms,
                std::uint64_t total, std::string* out) {
  PutVarint64(out, arms.size());
  for (const bandit::ArmState& arm : arms) {
    PutVarint64(out, arm.observations);
    PutDouble(out, arm.mean);
  }
  PutVarint64(out, total);
}

void EncodeReliability(const market::SellerReliability& seller,
                       std::string* out) {
  PutZigzag64(out, seller.deliveries);
  PutZigzag64(out, seller.partials);
  PutZigzag64(out, seller.defaults);
  PutZigzag64(out, seller.corruptions);
  PutZigzag64(out, seller.quarantine_drops);
  PutZigzag64(out, seller.times_opened);
  PutZigzag64(out, seller.consecutive_faults);
  PutZigzag64(out, seller.probation_progress);
  PutByte(out, static_cast<std::uint8_t>(seller.state));
  PutZigzag64(out, seller.opened_round);
}

}  // namespace

void PutString(std::string* out, std::string_view value) {
  PutVarint64(out, value.size());
  out->append(value.data(), value.size());
}

util::Status ReadString(ByteReader* in, std::string* value) {
  std::uint64_t length;
  CDT_RETURN_NOT_OK(in->ReadVarint64(&length));
  if (length > in->remaining()) {
    return util::Status::ParseError("truncated input reading string body");
  }
  std::string_view bytes;
  CDT_RETURN_NOT_OK(in->ReadBytes(static_cast<std::size_t>(length), &bytes));
  value->assign(bytes);
  return util::Status::OK();
}

void ReferenceEncodeLegacySnapshot(const market::EngineSnapshot& snapshot,
                                   const LegacySnapshotLayout& layout,
                                   std::string* out) {
  PutZigzag64(out, snapshot.next_round);
  PutBool(out, snapshot.budget_exhausted);
  PutDouble(out,
            layout.consumer_spend.value_or(snapshot.ledger_consumer_outflow));
  EncodeArms(snapshot.pricing_arms, snapshot.pricing_total_observations, out);
  PutBool(out, layout.second_arms != nullptr);
  if (layout.second_arms != nullptr) {
    EncodeArms(*layout.second_arms, layout.second_total, out);
  }
  PutDoubleVector(out, snapshot.ledger_balances);
  PutDouble(out, snapshot.ledger_consumer_outflow);
  PutDouble(out, snapshot.ledger_seller_inflow);
  PutVarint64(out, layout.transfers.size());
  for (const LegacyTransfer& transfer : layout.transfers) {
    PutZigzag64(out, transfer.round);
    PutZigzag64(out, transfer.from);
    PutZigzag64(out, transfer.to);
    PutDouble(out, transfer.amount);
    PutString(out, transfer.memo);
  }
  PutVarint64(out, snapshot.reliability.size());
  for (const market::SellerReliability& seller : snapshot.reliability) {
    EncodeReliability(seller, out);
  }
  PutZigzag64(out, snapshot.reliability_total_faults);
  for (std::int64_t count : snapshot.fault_counts) {
    PutZigzag64(out, count);
  }
  for (std::uint64_t word : snapshot.environment.rng_state) {
    PutFixed64(out, word);
  }
  PutVarint64(out, snapshot.environment.has_spare.size());
  for (std::uint8_t flag : snapshot.environment.has_spare) {
    PutByte(out, flag);
  }
  PutDoubleVector(out, snapshot.environment.spare);
  if (!snapshot.seller_active.empty()) {
    PutVarint64(out, snapshot.seller_active.size());
    for (std::uint8_t flag : snapshot.seller_active) {
      PutByte(out, flag);
    }
  }
}

void ReferenceEncodeEngineSnapshot(const market::EngineSnapshot& snapshot,
                                   std::string* out) {
  ReferenceEncodeLegacySnapshot(snapshot, {}, out);
}

std::string ReferenceSnapshotFileBytes(
    std::uint32_t config_crc, const market::EngineSnapshot& snapshot) {
  std::string encoded;
  ReferenceEncodeEngineSnapshot(snapshot, &encoded);
  return ReferenceSnapshotFileBytes(config_crc, encoded);
}

std::string ReferenceSnapshotFileBytes(std::uint32_t config_crc,
                                       const std::string& encoded_snapshot) {
  std::string payload;
  PutFixed32(&payload, config_crc);
  payload.append(encoded_snapshot);
  std::string bytes(kSnapshotMagic, 8);
  PutVarint64(&bytes, kFormatVersion);
  PutVarint64(&bytes, payload.size());
  bytes.append(payload);
  PutFixed32(&bytes, Crc32(payload));
  return bytes;
}

}  // namespace testsupport
}  // namespace cdt
