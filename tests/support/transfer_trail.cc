#include "support/transfer_trail.h"

#include <bit>
#include <cstddef>
#include <sstream>

namespace cdt {
namespace testsupport {

namespace {

std::size_t SlotOf(std::int32_t account) {
  if (account == market::kConsumerAccount) return 0;
  if (account == market::kPlatformAccount) return 1;
  return static_cast<std::size_t>(account) + 2;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

void TransferTrail::AddRound(const market::RoundReport& report) {
  if (report.voided) return;
  transfers_.push_back({market::kConsumerAccount, market::kPlatformAccount,
                        report.consumer_price * report.total_time});
  for (std::size_t j = 0; j < report.selected.size(); ++j) {
    transfers_.push_back({market::kPlatformAccount,
                          static_cast<std::int32_t>(report.selected[j]),
                          report.collection_price * report.tau[j]});
  }
}

std::string TransferTrail::Mismatch(const market::Ledger& ledger) const {
  std::vector<double> balances(static_cast<std::size_t>(num_sellers_) + 2,
                               0.0);
  double consumer_outflow = 0.0;
  double seller_inflow = 0.0;
  for (const TrailTransfer& t : transfers_) {
    balances[SlotOf(t.from)] -= t.amount;
    balances[SlotOf(t.to)] += t.amount;
    if (t.from == market::kConsumerAccount) consumer_outflow += t.amount;
    if (t.to >= market::kSellerBase) seller_inflow += t.amount;
  }
  std::ostringstream out;
  out.precision(17);
  if (ledger.balances().size() != balances.size()) {
    out << "ledger has " << ledger.balances().size() << " slots, the trail "
        << balances.size();
    return out.str();
  }
  for (std::size_t slot = 0; slot < balances.size(); ++slot) {
    if (!SameBits(ledger.balances()[slot], balances[slot])) {
      out << "slot " << slot << ": ledger " << ledger.balances()[slot]
          << ", trail " << balances[slot];
      return out.str();
    }
  }
  if (!SameBits(ledger.ConsumerOutflow(), consumer_outflow)) {
    out << "consumer outflow: ledger " << ledger.ConsumerOutflow()
        << ", trail " << consumer_outflow;
  } else if (!SameBits(ledger.SellerInflow(), seller_inflow)) {
    out << "seller inflow: ledger " << ledger.SellerInflow() << ", trail "
        << seller_inflow;
  }
  return out.str();
}

}  // namespace testsupport
}  // namespace cdt
