// The transfer-trail oracle. The ledger keeps balances only; this rebuilds
// the moves behind them from each round's RoundReport (Def. 5's
// settlement): p^J·Στ from the consumer to the platform, then p·τ_i from
// the platform to each selected seller i, for every round that was not
// voided. Folded in order from zero balances, the trail reproduces the
// ledger's additions one for one, so tests compare bit-exactly.

#ifndef CDT_TESTS_SUPPORT_TRANSFER_TRAIL_H_
#define CDT_TESTS_SUPPORT_TRANSFER_TRAIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "market/ledger.h"
#include "market/types.h"

namespace cdt {
namespace testsupport {

/// One rebuilt money move.
struct TrailTransfer {
  std::int32_t from = 0;
  std::int32_t to = 0;
  double amount = 0.0;
};

class TransferTrail {
 public:
  explicit TransferTrail(int num_sellers) : num_sellers_(num_sellers) {}

  /// Appends the round's settlement moves; a voided round moves no money.
  void AddRound(const market::RoundReport& report);

  const std::vector<TrailTransfer>& transfers() const { return transfers_; }

  /// Empty when the ledger's balances, ConsumerOutflow() and
  /// SellerInflow() equal the trail folded from zero, bit for bit; else
  /// the first difference.
  std::string Mismatch(const market::Ledger& ledger) const;

 private:
  int num_sellers_;
  std::vector<TrailTransfer> transfers_;
};

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_TRANSFER_TRAIL_H_
