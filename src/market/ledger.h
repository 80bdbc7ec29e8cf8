// Payment ledger: double-entry balances of the consumer, the platform and
// the M sellers (Def. 5's settlement step). Every recorded transfer debits
// exactly one account and credits exactly one, so balances conserve money,
// which the invariant checker audits. The ledger keeps balances and two
// aggregates only: each round's moves are functions of its RoundReport,
// which the event log already records, so no transfer history is kept.

#ifndef CDT_MARKET_LEDGER_H_
#define CDT_MARKET_LEDGER_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace market {

/// Account identifiers. Seller accounts are kSellerBase + seller index.
enum AccountId : std::int32_t {
  kConsumerAccount = -2,
  kPlatformAccount = -1,
  kSellerBase = 0,
};

/// Double-entry ledger over the consumer, the platform, and M sellers.
class Ledger {
 public:
  explicit Ledger(int num_sellers);

  /// Moves `amount` from one account to another. Unknown accounts, a
  /// self-transfer and a negative or non-finite amount are rejected (record
  /// the reverse direction instead of a negative amount).
  util::Status Record(std::int32_t from, std::int32_t to, double amount);

  /// Net balance of an account (credits minus debits; starts at 0).
  util::Result<double> Balance(std::int32_t account) const;

  /// Σ of all balances — exactly 0 under double entry (up to float error).
  double NetPosition() const;

  /// Total amount the consumer has paid out.
  double ConsumerOutflow() const { return consumer_outflow_; }

  /// Total amount sellers have received.
  double SellerInflow() const { return seller_inflow_; }

  /// Per-slot balances: consumer, platform, then the M sellers.
  const std::vector<double>& balances() const { return balances_; }
  int num_sellers() const { return num_sellers_; }

  /// Restores a previously captured ledger state (snapshot/replay):
  /// per-slot balances (consumer, platform, sellers — size M+2) and the
  /// outflow/inflow aggregates. Refuses, without mutating, a wrong balance
  /// count, a non-finite balance or aggregate, and a negative consumer
  /// outflow.
  util::Status Restore(std::vector<double> balances, double consumer_outflow,
                       double seller_inflow);

 private:
  bool ValidAccount(std::int32_t account) const;
  std::size_t SlotOf(std::int32_t account) const;

  int num_sellers_;
  // Slot 0: consumer, slot 1: platform, slots 2..: sellers.
  std::vector<double> balances_;
  double consumer_outflow_ = 0.0;
  double seller_inflow_ = 0.0;
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_LEDGER_H_
