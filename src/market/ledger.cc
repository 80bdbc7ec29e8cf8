#include "market/ledger.h"

#include <cmath>
#include <string>

namespace cdt {
namespace market {

using util::Result;
using util::Status;

Ledger::Ledger(int num_sellers)
    : num_sellers_(num_sellers),
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

Status Ledger::Record(std::int32_t from, std::int32_t to, double amount) {
  if (!ValidAccount(from) || !ValidAccount(to)) {
    return Status::InvalidArgument("unknown ledger account");
  }
  if (from == to) {
    return Status::InvalidArgument("self-transfer is not allowed");
  }
  if (!std::isfinite(amount) || amount < 0.0) {
    return Status::InvalidArgument(
        "negative or non-finite transfer; record a finite amount in the "
        "reverse direction instead");
  }
  balances_[SlotOf(from)] -= amount;
  balances_[SlotOf(to)] += amount;
  if (from == kConsumerAccount) consumer_outflow_ += amount;
  if (to == kConsumerAccount) consumer_outflow_ -= amount;
  if (to >= kSellerBase) seller_inflow_ += amount;
  if (from >= kSellerBase) seller_inflow_ -= amount;
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
                       double seller_inflow) {
  if (balances.size() != balances_.size()) {
    return Status::InvalidArgument(
        "ledger restore balance count mismatch: have " +
        std::to_string(balances_.size()) + " slots, snapshot has " +
        std::to_string(balances.size()));
  }
  // A non-finite value would pass every later `residual > bound` check of
  // the invariant checker, whose baseline is copied from these values.
  for (double balance : balances) {
    if (!std::isfinite(balance)) {
      return Status::OutOfRange("non-finite ledger balance in snapshot");
    }
  }
  if (!std::isfinite(consumer_outflow) || !std::isfinite(seller_inflow)) {
    return Status::OutOfRange("non-finite ledger aggregate in snapshot");
  }
  if (consumer_outflow < 0.0) {
    return Status::OutOfRange("negative consumer outflow in snapshot");
  }
  balances_ = std::move(balances);
  consumer_outflow_ = consumer_outflow;
  seller_inflow_ = seller_inflow;
  return Status::OK();
}

}  // namespace market
}  // namespace cdt
