// The naive per-segment Stackelberg sweep: the test oracle for the
// production stage-2 best response (StackelbergSolver's sweep over its
// hoisted segment table), and the heuristic stage-1 search that the
// solver's exact regime walk replaced, kept as an oracle the walk must
// match or beat.
//
// The supply kinks are re-derived from the public GameConfig with a plain
// std::sort under the solver's total event order,
// and every PlatformBestPrice query walks all segments with the
// expressions of the original sweep: box.lo, then per segment its interior
// Theorem-15 optimum (when strictly inside) and its upper endpoint, the
// first strict maximum winning. Tests pin the solver bit-identical to it,
// and bench/micro_game links it for its *Reference rows.

#ifndef CDT_TESTS_SUPPORT_REFERENCE_STACKELBERG_H_
#define CDT_TESTS_SUPPORT_REFERENCE_STACKELBERG_H_

#include <vector>

#include "game/stackelberg.h"

namespace cdt {
namespace testsupport {

class ReferenceStackelberg {
 public:
  /// One kink of the supply curve: on [price, next kink) S(p) = a·p − b + c.
  struct Kink {
    double price;
    double a;
    double b;
    double c;
  };

  /// `config` must already validate (GameConfig::Validate).
  explicit ReferenceStackelberg(game::GameConfig config);

  const game::GameConfig& config() const { return config_; }
  const std::vector<Kink>& kinks() const { return kinks_; }

  /// Stage 2 by the full per-segment sweep, O(K) per query.
  double PlatformBestPrice(double consumer_price) const;

  /// Στ(p) from the kinks (the solver's TotalTimeAt expressions).
  double TotalTimeAt(double collection_price) const;

  /// Φ(p^J, p*(p^J)) over the naive sweep.
  double ConsumerProfitAnticipating(double consumer_price) const;

  /// Stage 1 by the heuristic search the regime walk replaced, over the
  /// naive sweep: Theorem 16's closed form when its induced solution is
  /// interior, else per-segment candidates, a 127-point grid, golden
  /// section and one jump bisection. It can miss the optimum (by up to
  /// 5.6e-3 relative on RandomGameConfig games); tests require the
  /// solver's ConsumerBestPrice to do at least as well.
  double ConsumerBestPrice() const;

 private:
  bool InteriorRegimeHolds(double collection_price) const;

  game::GameConfig config_;
  game::Aggregates agg_;
  std::vector<Kink> kinks_;
};

}  // namespace testsupport
}  // namespace cdt

#endif  // CDT_TESTS_SUPPORT_REFERENCE_STACKELBERG_H_
