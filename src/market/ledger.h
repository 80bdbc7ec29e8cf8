// Payment ledger: double-entry accounting of every monetary transfer in the
// CDT system (Def. 5's settlement step). Balances must conserve money —
// every transfer debits exactly one account and credits exactly one — which
// the test suite asserts as an invariant across whole simulations.

#ifndef CDT_MARKET_LEDGER_H_
#define CDT_MARKET_LEDGER_H_

#include <cstdint>
#include <string>
#include <string_view>
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

/// One recorded transfer.
struct Transfer {
  std::int64_t round = 0;
  std::int32_t from = 0;
  std::int32_t to = 0;
  double amount = 0.0;
  std::string memo;
};

/// Double-entry ledger over the consumer, the platform, and M sellers.
class Ledger {
 public:
  /// `keep_history` false maintains balances only (O(1) memory) — used by
  /// large-N benchmark sweeps; transfers() is then empty.
  explicit Ledger(int num_sellers, bool keep_history = true);

  /// Records a transfer; negative amounts are rejected (use the reverse
  /// direction instead) as are unknown accounts. The memo is copied only
  /// when the ledger keeps its history.
  util::Status Record(std::int64_t round, std::int32_t from, std::int32_t to,
                      double amount, std::string_view memo);

  /// Net balance of an account (credits minus debits; starts at 0).
  util::Result<double> Balance(std::int32_t account) const;

  /// Σ of all balances — exactly 0 under double entry (up to float error).
  double NetPosition() const;

  /// Total amount the consumer has paid out (maintained even without
  /// history).
  double ConsumerOutflow() const { return consumer_outflow_; }

  /// Total amount sellers have received (maintained even without history).
  double SellerInflow() const { return seller_inflow_; }

  const std::vector<Transfer>& transfers() const { return transfers_; }
  /// Per-slot balances: consumer, platform, then the M sellers.
  const std::vector<double>& balances() const { return balances_; }
  int num_sellers() const { return num_sellers_; }
  bool keep_history() const { return keep_history_; }

  /// Restores a previously captured ledger state (snapshot/replay):
  /// per-slot balances (consumer, platform, sellers — size M+2), the
  /// outflow/inflow aggregates, and the transfer history. A history is
  /// only accepted when this ledger keeps one; a history-keeping ledger
  /// accepts an empty history (recorded with track_transfers off).
  util::Status Restore(std::vector<double> balances, double consumer_outflow,
                       double seller_inflow, std::vector<Transfer> transfers);

 private:
  bool ValidAccount(std::int32_t account) const;
  std::size_t SlotOf(std::int32_t account) const;

  int num_sellers_;
  bool keep_history_;
  // Slot 0: consumer, slot 1: platform, slots 2..: sellers.
  std::vector<double> balances_;
  std::vector<Transfer> transfers_;
  double consumer_outflow_ = 0.0;
  double seller_inflow_ = 0.0;
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_LEDGER_H_
