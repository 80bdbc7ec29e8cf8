#include "market/ledger.h"

namespace cdt {
namespace market {

using util::Result;
using util::Status;

Ledger::Ledger(int num_sellers, bool keep_history)
    : num_sellers_(num_sellers),
      keep_history_(keep_history),
      balances_(static_cast<std::size_t>(num_sellers) + 2, 0.0) {}

bool Ledger::ValidAccount(std::int32_t account) const {
  if (account == kConsumerAccount || account == kPlatformAccount) return true;
  return account >= kSellerBase && account < num_sellers_;
}

std::size_t Ledger::SlotOf(std::int32_t account) const {
  if (account == kConsumerAccount) return 0;
  if (account == kPlatformAccount) return 1;
  return static_cast<std::size_t>(account) + 2;
}

Status Ledger::Record(std::int64_t round, std::int32_t from, std::int32_t to,
                      double amount, std::string_view memo) {
  if (!ValidAccount(from) || !ValidAccount(to)) {
    return Status::InvalidArgument("unknown ledger account");
  }
  if (from == to) {
    return Status::InvalidArgument("self-transfer is not allowed");
  }
  if (amount < 0.0) {
    return Status::InvalidArgument(
        "negative transfer; record the reverse direction instead");
  }
  balances_[SlotOf(from)] -= amount;
  balances_[SlotOf(to)] += amount;
  if (from == kConsumerAccount) consumer_outflow_ += amount;
  if (to == kConsumerAccount) consumer_outflow_ -= amount;
  if (to >= kSellerBase) seller_inflow_ += amount;
  if (from >= kSellerBase) seller_inflow_ -= amount;
  if (keep_history_) {
    Transfer t;
    t.round = round;
    t.from = from;
    t.to = to;
    t.amount = amount;
    t.memo = memo;
    transfers_.push_back(std::move(t));
  }
  return Status::OK();
}

Result<double> Ledger::Balance(std::int32_t account) const {
  if (!ValidAccount(account)) {
    return Status::InvalidArgument("unknown ledger account");
  }
  return balances_[SlotOf(account)];
}

double Ledger::NetPosition() const {
  // Four interleaved partial sums, so the adds pipeline instead of forming
  // one M-long dependency chain (the invariant checker sums every round).
  const double* b = balances_.data();
  const std::size_t n = balances_.size();
  double part[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    part[0] += b[i];
    part[1] += b[i + 1];
    part[2] += b[i + 2];
    part[3] += b[i + 3];
  }
  for (; i < n; ++i) part[0] += b[i];
  return (part[0] + part[1]) + (part[2] + part[3]);
}

Status Ledger::Restore(std::vector<double> balances, double consumer_outflow,
                       double seller_inflow,
                       std::vector<Transfer> transfers) {
  if (balances.size() != balances_.size()) {
    return Status::InvalidArgument(
        "ledger restore balance count mismatch: have " +
        std::to_string(balances_.size()) + " slots, snapshot has " +
        std::to_string(balances.size()));
  }
  if (!keep_history_ && !transfers.empty()) {
    return Status::InvalidArgument(
        "snapshot carries transfer history but this ledger keeps none");
  }
  for (const Transfer& t : transfers) {
    if (!ValidAccount(t.from) || !ValidAccount(t.to) || t.amount < 0.0) {
      return Status::InvalidArgument("invalid transfer in ledger snapshot");
    }
  }
  balances_ = std::move(balances);
  consumer_outflow_ = consumer_outflow;
  seller_inflow_ = seller_inflow;
  transfers_ = std::move(transfers);
  return Status::OK();
}

}  // namespace market
}  // namespace cdt
