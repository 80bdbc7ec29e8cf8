// Small numeric helpers: interval clamping, approximate comparison,
// quadratic roots, and linearly spaced grids.

#ifndef CDT_UTIL_MATH_UTIL_H_
#define CDT_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace util {

/// A closed real interval [lo, hi]; used for price boxes and sensing-time
/// feasible regions throughout the game module.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double x) const { return x >= lo && x <= hi; }
  double width() const { return hi - lo; }
  /// Projects x onto the interval.
  double Clamp(double x) const;
  /// True when lo <= hi.
  bool valid() const { return lo <= hi; }
};

/// `count` points evenly spaced over [lo, hi] inclusive; count >= 2.
Result<std::vector<double>> Linspace(double lo, double hi, std::size_t count);

/// Golden-section search for the maximum of a unimodal function on [lo, hi].
/// Runs until the bracket is narrower than `tol`. Returns (argmax, max).
template <typename F>
std::pair<double, double> GoldenSectionMax(F&& f, double lo, double hi,
                                           double tol = 1e-10) {
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  while (b - a > tol) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    }
  }
  double xm = 0.5 * (a + b);
  return {xm, f(xm)};
}

}  // namespace util
}  // namespace cdt

#endif  // CDT_UTIL_MATH_UTIL_H_
