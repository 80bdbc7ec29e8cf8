#include "util/math_util.h"

#include <algorithm>
#include <cmath>

namespace cdt {
namespace util {

double Interval::Clamp(double x) const {
  return std::min(hi, std::max(lo, x));
}

Result<std::vector<double>> Linspace(double lo, double hi, std::size_t count) {
  if (count < 2) {
    return Status::InvalidArgument("Linspace requires count >= 2");
  }
  std::vector<double> out(count);
  double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;
  return out;
}

}  // namespace util
}  // namespace cdt
