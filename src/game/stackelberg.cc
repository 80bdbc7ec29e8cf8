#include "game/stackelberg.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace cdt {
namespace game {

using util::Result;
using util::Status;

#if CDT_TELEMETRY
namespace {

// Per-stage solve-time histogram; each Solve() site caches its handle in a
// function-local static (see CDT_SPAN_TIMED).
obs::Histogram* StageSolveHistogram(const char* stage) {
  return obs::registry().GetHistogram(
      "cdt_stage_solve_seconds",
      "Wall-clock seconds solving one Stackelberg stage.",
      obs::DefaultLatencyBuckets(), {{"stage", stage}});
}

}  // namespace
#endif  // CDT_TELEMETRY

namespace {

// Below this many segments the every-segment bucket costs a query no more
// than a piece lookup would, so the envelope index is not built.
constexpr int kMinIndexedSegments = 32;

// First index in [0, n] at which `below` (true, then false over [0, n))
// turns false, searched outward from `hint` in O(log distance). The index
// build searches nearly sorted keys line by line, so each answer is
// usually next to the previous line's. For any `below`, monotone or not,
// the result is n or an index where `below` was evaluated false.
template <typename Below>
int PartitionNear(int n, int hint, Below below) {
  if (n == 0) return 0;
  hint = std::min(std::max(hint, 0), n - 1);
  // Invariant: below(lo) holds or lo == -1; below(hi) fails or hi == n.
  int lo = -1, hi = n;
  if (below(hint)) {
    lo = hint;
    for (int step = 1; lo + step < n; step *= 2) {
      if (!below(lo + step)) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  } else {
    hi = hint;
    for (int step = 1; hi - step >= 0; step *= 2) {
      if (below(hi - step)) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  }
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    (below(mid) ? lo : hi) = mid;
  }
  return hi;
}

}  // namespace

Status GameConfig::Validate() const {
  if (sellers.empty()) {
    return Status::InvalidArgument("game needs >= 1 selected seller");
  }
  if (sellers.size() != qualities.size()) {
    return Status::InvalidArgument(
        "sellers and qualities must have equal size");
  }
  for (const SellerCostParams& s : sellers) {
    CDT_RETURN_NOT_OK(s.Validate());
  }
  for (double q : qualities) {
    // Non-finite qualities are rejected outright: every closed form below
    // divides by q̄_i, and a NaN would flow straight into the ledger.
    if (!std::isfinite(q)) {
      return Status::InvalidArgument(
          "learned qualities must be finite for the game to be defined");
    }
    if (!(q > 0.0) || q > 1.0) {
      return Status::OutOfRange(
          "learned qualities must lie in (0, 1] for the game to be defined");
    }
  }
  CDT_RETURN_NOT_OK(platform.Validate());
  CDT_RETURN_NOT_OK(valuation.Validate());
  if (!consumer_price_bounds.valid() || consumer_price_bounds.lo < 0.0) {
    return Status::InvalidArgument("invalid consumer price bounds");
  }
  if (!collection_price_bounds.valid() || collection_price_bounds.lo < 0.0) {
    return Status::InvalidArgument("invalid collection price bounds");
  }
  if (!(max_sensing_time > 0.0)) {
    return Status::InvalidArgument("max_sensing_time must be > 0");
  }
  return Status::OK();
}

Aggregates ComputeAggregates(const GameConfig& config) {
  Aggregates agg;
  double quality_sum = 0.0;
  for (std::size_t i = 0; i < config.sellers.size(); ++i) {
    double q = config.qualities[i];
    double a = config.sellers[i].a;
    double b = config.sellers[i].b;
    agg.a_sum += 1.0 / (2.0 * q * a);
    agg.b_sum += b / (2.0 * a);
    quality_sum += q;
  }
  agg.mean_quality = quality_sum / static_cast<double>(config.sellers.size());
  double theta = config.platform.theta;
  double lambda = config.platform.lambda;
  double denom = 2.0 * (1.0 + theta * agg.a_sum);
  agg.theta_coef = agg.a_sum / denom;
  // Corrected stage-2 constant: C = λA − 2θAB − B (see header note).
  double c = lambda * agg.a_sum - 2.0 * theta * agg.a_sum * agg.b_sum -
             agg.b_sum;
  agg.lambda_coef = c / denom + agg.b_sum;
  return agg;
}

Result<StackelbergSolver> StackelbergSolver::Create(GameConfig config) {
  CDT_RETURN_NOT_OK(config.Validate());
  Aggregates agg = ComputeAggregates(config);
  return StackelbergSolver(std::move(config), agg);
}

Status StackelbergSolver::ResetCoalition(
    std::vector<SellerCostParams>* sellers, std::vector<double>* qualities) {
  if (sellers->empty()) {
    return Status::InvalidArgument("game needs >= 1 selected seller");
  }
  if (sellers->size() != qualities->size()) {
    return Status::InvalidArgument(
        "sellers and qualities must have equal size");
  }
  // Only the round-varying inputs are re-checked; the cost parameters are
  // structural and were validated when the caller built them (same error
  // wording as GameConfig::Validate so failures read identically).
  for (double q : *qualities) {
    if (!std::isfinite(q)) {
      return Status::InvalidArgument(
          "learned qualities must be finite for the game to be defined");
    }
    if (!(q > 0.0) || q > 1.0) {
      return Status::OutOfRange(
          "learned qualities must lie in (0, 1] for the game to be defined");
    }
  }
  config_.sellers.swap(*sellers);
  config_.qualities.swap(*qualities);
  agg_ = ComputeAggregates(config_);
  BuildSupplyKinks();
  return Status::OK();
}

double StackelbergSolver::SellerBestTime(int i, double collection_price)
    const {
  double q = config_.qualities[static_cast<std::size_t>(i)];
  const SellerCostParams& s = config_.sellers[static_cast<std::size_t>(i)];
  // Thm. 14 / Eq. (20): interior optimum of the strictly concave Ψ_i,
  // projected onto [0, T].
  double tau = (collection_price - q * s.b) / (2.0 * q * s.a);
  util::Interval feasible{0.0, config_.max_sensing_time};
  return feasible.Clamp(tau);
}

std::vector<double> StackelbergSolver::SellerBestTimes(
    double collection_price) const {
  std::vector<double> tau(config_.sellers.size());
  for (std::size_t i = 0; i < tau.size(); ++i) {
    tau[i] = SellerBestTime(static_cast<int>(i), collection_price);
  }
  return tau;
}

double StackelbergSolver::PlatformBestPriceInterior(
    double consumer_price) const {
  double a = agg_.a_sum;
  double b = agg_.b_sum;
  double theta = config_.platform.theta;
  double lambda = config_.platform.lambda;
  double c = lambda * a - 2.0 * theta * a * b - b;  // corrected constant
  double p = (consumer_price * a - c) / (2.0 * a * (1.0 + theta * a));
  return config_.collection_price_bounds.Clamp(p);
}

void StackelbergSolver::BuildSupplyKinks() {
  const util::Interval& box = config_.collection_price_bounds;
  double t_cap = config_.max_sensing_time;

  // Kink events of Στ(p) = Σ clamp((p − q_i b_i)/(2 q_i a_i), 0, T):
  // activation at p = q_i b_i, saturation at p = q_i b_i + 2 q_i a_i T.
  std::vector<KinkEvent>& events = event_scratch_;
  events.clear();
  events.reserve(2 * config_.sellers.size());
  double a_lin = 0.0, b_lin = 0.0, c_const = 0.0;  // state at p = box.lo
  for (std::size_t i = 0; i < config_.sellers.size(); ++i) {
    double q = config_.qualities[i];
    double a = config_.sellers[i].a;
    double b = config_.sellers[i].b;
    double activate = q * b;
    double saturate = activate + 2.0 * q * a * t_cap;
    double inv = 1.0 / (2.0 * q * a);
    double off = b / (2.0 * a);
    if (box.lo > activate) {
      if (box.lo >= saturate) {
        c_const += t_cap;
      } else {
        a_lin += inv;
        b_lin += off;
      }
    }
    if (activate > box.lo && activate < box.hi) {
      events.push_back(
          {activate, inv, off, 0.0, static_cast<int>(events.size())});
    }
    if (saturate > box.lo && saturate < box.hi && std::isfinite(saturate)) {
      events.push_back(
          {saturate, -inv, -off, t_cap, static_cast<int>(events.size())});
    }
  }
  SortKinkEvents();

  kinks_.clear();
  kinks_.reserve(events.size() + 1);
  kinks_.push_back({box.lo, a_lin, b_lin, c_const});
  for (const KinkEvent& e : events) {
    a_lin += e.delta_a;
    b_lin += e.delta_b;
    c_const += e.delta_c;
    if (e.price == kinks_.back().price) {
      kinks_.back() = {e.price, a_lin, b_lin, c_const};
    } else {
      kinks_.push_back({e.price, a_lin, b_lin, c_const});
    }
  }
  BuildSegmentTable();
  BuildEnvelopeIndex();
}

void StackelbergSolver::BuildSegmentTable() {
  const util::Interval& box = config_.collection_price_bounds;
  const double theta = config_.platform.theta;
  const double lambda = config_.platform.lambda;
  const std::size_t n = kinks_.size();
  seg_.end_price.resize(n);
  seg_.end_supply.resize(n);
  seg_.end_d1.resize(n);
  seg_.end_d2.resize(n);
  seg_.c.resize(n);
  seg_.denom.resize(n);
  seg_.window_lo.resize(n);
  seg_.window_hi.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const SupplyKink& k = kinks_[j];
    const double seg_lo = k.price;
    const double seg_hi = j + 1 < n ? kinks_[j + 1].price : box.hi;
    // Endpoint candidate: (p^J − seg_hi)·s − θ·s·s − λ·s with s a
    // coalition constant — exactly profit_at(seg_hi, k)'s expressions.
    double s = k.a * seg_hi - k.b + k.c;
    if (s < 0.0) s = 0.0;
    seg_.end_price[j] = seg_hi;
    seg_.end_supply[j] = s;
    seg_.end_d1[j] = theta * s * s;
    seg_.end_d2[j] = lambda * s;
    if (k.a > 0.0) {
      const double b_eff = k.b - k.c;
      const double c = lambda * k.a - 2.0 * theta * k.a * b_eff - b_eff;
      const double denom = 2.0 * k.a * (1.0 + theta * k.a);
      seg_.c[j] = c;
      seg_.denom[j] = denom;
      // p*_j(p^J) = (p^J·a − c)/denom is increasing in p^J, so it lies
      // strictly inside (seg_lo, seg_hi) on a single p^J interval. The
      // window is widened so the exact strict test in the query can never
      // be pruned away by the inversion's rounding.
      const double lo = (seg_lo * denom + c) / k.a;
      const double hi = (seg_hi * denom + c) / k.a;
      seg_.window_lo[j] = lo - 1e-9 * (1.0 + std::fabs(lo));
      seg_.window_hi[j] = hi + 1e-9 * (1.0 + std::fabs(hi));
    } else {
      seg_.c[j] = 0.0;
      seg_.denom[j] = 1.0;
      // Empty window: flat segments have no interior optimum.
      seg_.window_lo[j] = std::numeric_limits<double>::infinity();
      seg_.window_hi[j] = -std::numeric_limits<double>::infinity();
    }
  }
  const SupplyKink& front = kinks_.front();
  double s0 = front.a * box.lo - front.b + front.c;
  if (s0 < 0.0) s0 = 0.0;
  seg_.init_supply = s0;
  seg_.init_d1 = theta * s0 * s0;
  seg_.init_d2 = lambda * s0;
}

void StackelbergSolver::BuildEnvelopeIndex() {
  EnvelopeIndex& env = env_;
  const int n = static_cast<int>(kinks_.size());
  const double* ep = seg_.end_price.data();
  const double* es = seg_.end_supply.data();
  const double* d1 = seg_.end_d1.data();
  const double* d2 = seg_.end_d2.data();
  const double x_lo = config_.consumer_price_bounds.lo;  // >= 0 (Validate)
  const double x_hi = config_.consumer_price_bounds.hi;
  env.breaks.clear();

  // Line j's value as every query computes it, and twice the worst-case
  // error of that computation: with u = 2⁻⁵³ its four roundings are off by
  // at most ~4u·(x·es + mag) for x, ep, es, d1, d2 >= 0, plus underflow.
  auto line_at = [&](int j, double x) {
    return (x - ep[j]) * es[j] - d1[j] - d2[j];
  };
  constexpr double kErr = 4.0 * std::numeric_limits<double>::epsilon();
  auto err_at = [&](int j, double x) {
    return kErr * (x * es[j] + env.magnitude[j]) +
           std::numeric_limits<double>::min();
  };

  bool indexable = n >= kMinIndexedSegments && std::isfinite(x_hi) &&
                   std::isfinite(seg_.init_d1) && std::isfinite(seg_.init_d2);
  if (indexable) {
    const std::size_t un = static_cast<std::size_t>(n);
    env.intercept.resize(un);
    env.magnitude.resize(un);
    env.at_lo.resize(un);
    env.at_hi.resize(un);
    env.err_lo.resize(un);
    env.err_hi.resize(un);
    // Every intermediate of a query's line evaluation is bounded by
    // x_hi·es + mag; a quarter of the double range keeps all of them, and
    // every gap below, finite.
    constexpr double kRange = std::numeric_limits<double>::max() / 4.0;
    for (int j = 0; j < n && indexable; ++j) {
      const double pe = ep[j] * es[j];
      env.intercept[j] = -(pe + d1[j] + d2[j]);
      env.magnitude[j] = pe + d1[j] + d2[j];
      env.at_lo[j] = line_at(j, x_lo);
      env.at_hi[j] = line_at(j, x_hi);
      env.err_lo[j] = err_at(j, x_lo);
      env.err_hi[j] = err_at(j, x_hi);
      indexable = x_hi * es[j] + env.magnitude[j] < kRange &&
                  !std::isnan(seg_.window_lo[j]) &&
                  !std::isnan(seg_.window_hi[j]);
    }
  }
  if (!indexable) {
    env.begin.assign({0, 2 * n});
    env.split.assign({n});
    env.entries.resize(static_cast<std::size_t>(2 * n));
    for (int j = 0; j < n; ++j) env.entries[j] = env.entries[n + j] = j;
    return;
  }

  // Upper envelope of the lines (slope es, intercept) by the monotone hull
  // over slope-sorted lines. Its accuracy only affects bucket sizes: every
  // exclusion below is certified on its own.
  const double* icpt = env.intercept.data();
  auto by_slope = [es, icpt](int x, int y) {
    if (es[x] != es[y]) return es[x] < es[y];
    if (icpt[x] != icpt[y]) return icpt[x] < icpt[y];
    return x < y;
  };
  env.order.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) env.order[j] = j;
  if (!std::is_sorted(env.order.begin(), env.order.end(), by_slope)) {
    std::sort(env.order.begin(), env.order.end(), by_slope);
  }
  std::vector<int>& hull = env.hull;
  hull.clear();
  for (int c : env.order) {
    while (!hull.empty() && es[hull.back()] == es[c]) hull.pop_back();
    while (hull.size() >= 2) {
      const int a = hull[hull.size() - 2], b = hull.back();
      // b is hidden when c overtakes a no later than b does.
      if ((icpt[a] - icpt[c]) * (es[b] - es[a]) >
          (icpt[a] - icpt[b]) * (es[c] - es[a])) {
        break;
      }
      hull.pop_back();
    }
    hull.push_back(c);
  }
  // Clip the envelope to the consumer box: piece r is [breaks[r],
  // breaks[r+1]] under line piece_line[r].
  env.piece_line.clear();
  env.breaks.push_back(x_lo);
  for (std::size_t h = 0; h < hull.size(); ++h) {
    double right = std::numeric_limits<double>::infinity();
    if (h + 1 < hull.size()) {
      const int a = hull[h], b = hull[h + 1];
      right = (icpt[a] - icpt[b]) / (es[b] - es[a]);
    }
    if (!(right > env.breaks.back())) continue;
    env.piece_line.push_back(hull[h]);
    if (right >= x_hi) break;
    env.breaks.push_back(right);
  }
  env.breaks.push_back(x_hi);
  int pieces = static_cast<int>(env.piece_line.size());
  const std::vector<double>& br = env.breaks;
  const int* piece_line = env.piece_line.data();

  // Line k's computed value is strictly above line j's at every x in
  // [lo, hi] when the computed gap at both ends exceeds twice their summed
  // err: the exact gap then beats both evaluations' worst-case error at
  // the ends, and since gap and error bound are linear in x >= 0, between
  // them too. The box ends' values are precomputed.
  auto gap_ok = [&](int k, int j, double x) {
    return line_at(k, x) - line_at(j, x) > 2.0 * (err_at(k, x) + err_at(j, x));
  };
  // Piece r's line beats line j on [br[r], x_hi] (right_ok) or on
  // [x_lo, br[r+1]] (left_ok).
  auto right_ok = [&](int r, int j) {
    const int k = piece_line[r];
    const double err = env.err_hi[k] + env.err_hi[j];
    return env.at_hi[k] - env.at_hi[j] > 2.0 * err && gap_ok(k, j, br[r]);
  };
  auto left_ok = [&](int r, int j) {
    const int k = piece_line[r];
    const double err = env.err_lo[k] + env.err_lo[j];
    return env.at_lo[k] - env.at_lo[j] > 2.0 * err && gap_ok(k, j, br[r + 1]);
  };

  // Piece range of every candidate: 2j (segment j's interior window, which
  // meets piece r iff window_lo < breaks[r+1] and window_hi > breaks[r])
  // and 2j+1 (line j: the pieces not certified away on either side).
  env.range_lo.resize(static_cast<std::size_t>(2 * n));
  env.range_hi.resize(static_cast<std::size_t>(2 * n));
  int hint_lo = 0, hint_hi = 0, t = 0;
  for (int j = 0; j < n; ++j) {
    const double wlo = seg_.window_lo[j], whi = seg_.window_hi[j];
    if (wlo < whi) {
      hint_lo = PartitionNear(pieces, hint_lo,
                              [&](int r) { return br[r + 1] <= wlo; });
      hint_hi =
          PartitionNear(pieces, hint_hi, [&](int r) { return br[r] < whi; });
      env.range_lo[2 * j] = hint_lo;
      env.range_hi[2 * j] = hint_hi - 1;
    } else {  // flat segment: empty window
      env.range_lo[2 * j] = 0;
      env.range_hi[2 * j] = -1;
    }

    // First piece whose line is at least as steep as line j: to its right
    // line j falls away from the envelope, to its left likewise going left.
    t = PartitionNear(pieces, t,
                      [&](int r) { return es[piece_line[r]] < es[j]; });
    // Right side: some r >= t whose line beats j on [br[r], x_hi]; left
    // side, mirrored, some r < t. Any certified r is correct: the searches
    // (galloping out from t) only keep the bucket ranges small.
    const int right = t + PartitionNear(pieces - t, 0, [&](int i) {
                        return !right_ok(t + i, j);
                      });
    const int left = t - 1 - PartitionNear(t, 0, [&](int i) {
                       return !left_ok(t - 1 - i, j);
                     });
    env.range_lo[2 * j + 1] = left + 1;
    env.range_hi[2 * j + 1] = right - 1;
  }

  // Keep memory O(K): while the buckets would hold more than a constant
  // multiple of the entries, merge pieces pairwise (near-parallel lines
  // can otherwise put most lines in most pieces). A merged piece's bucket
  // is the union of its parts', so it stays a certified superset.
  const long long cap = 16LL * n + 64;
  int shift = 0;  // pieces merge in groups of 2^shift
  for (;; ++shift) {
    long long total = 0;
    for (int e = 0; e < 2 * n; ++e) {
      if (env.range_lo[e] <= env.range_hi[e]) {
        total += (env.range_hi[e] >> shift) - (env.range_lo[e] >> shift) + 1;
      }
    }
    if (total <= cap || (1 << shift) >= pieces) break;
  }
  if (shift > 0) {
    const int coarse = ((pieces - 1) >> shift) + 1;
    for (int r = 1; r < coarse; ++r) env.breaks[r] = env.breaks[r << shift];
    env.breaks[coarse] = env.breaks.back();
    env.breaks.resize(static_cast<std::size_t>(coarse) + 1);
    for (int e = 0; e < 2 * n; ++e) {
      if (env.range_lo[e] <= env.range_hi[e]) {
        env.range_lo[e] >>= shift;
        env.range_hi[e] >>= shift;
      }
    }
    pieces = coarse;
  }

  // CSR fill: bucket r lists the segments of its windows in [begin[r],
  // split[r]) and of its lines in [split[r], begin[r+1]), each ascending
  // (sweep order); the last bucket (index `pieces`) lists every segment
  // twice. Counts first (windows in split, lines in begin), then offsets.
  const int buckets = pieces + 1;
  env.begin.assign(static_cast<std::size_t>(buckets) + 1, 0);
  env.split.assign(static_cast<std::size_t>(buckets), 0);
  for (int j = 0; j < n; ++j) {
    for (int r = env.range_lo[2 * j]; r <= env.range_hi[2 * j]; ++r) {
      ++env.split[r];
    }
    for (int r = env.range_lo[2 * j + 1]; r <= env.range_hi[2 * j + 1]; ++r) {
      ++env.begin[r + 1];
    }
  }
  env.split[pieces] = n;
  env.begin[pieces + 1] = n;
  for (int r = 0; r < buckets; ++r) {
    const int lines = env.begin[r + 1];
    env.split[r] += env.begin[r];
    env.begin[r + 1] = env.split[r] + lines;
  }
  env.entries.resize(static_cast<std::size_t>(env.begin[buckets]));
  env.cursor.resize(2 * static_cast<std::size_t>(buckets));
  int* window_at = env.cursor.data();
  int* line_at_ = env.cursor.data() + buckets;
  std::copy(env.begin.begin(), env.begin.end() - 1, window_at);
  std::copy(env.split.begin(), env.split.end(), line_at_);
  for (int j = 0; j < n; ++j) {
    for (int r = env.range_lo[2 * j]; r <= env.range_hi[2 * j]; ++r) {
      env.entries[window_at[r]++] = j;
    }
    for (int r = env.range_lo[2 * j + 1]; r <= env.range_hi[2 * j + 1]; ++r) {
      env.entries[line_at_[r]++] = j;
    }
    env.entries[window_at[pieces]++] = j;
    env.entries[line_at_[pieces]++] = j;
  }
}

void StackelbergSolver::SortKinkEvents() {
  std::vector<KinkEvent>& events = event_scratch_;
  // Strict total order: equal prices are resolved by the deltas (so the
  // kink accumulation sees one canonical sequence no matter which sort
  // algorithm produced it), and fully-equal events by generation order.
  auto less = [](const KinkEvent& x, const KinkEvent& y) {
    if (x.price != y.price) return x.price < y.price;
    if (x.delta_a != y.delta_a) return x.delta_a < y.delta_a;
    if (x.delta_b != y.delta_b) return x.delta_b < y.delta_b;
    if (x.delta_c != y.delta_c) return x.delta_c < y.delta_c;
    return x.src < y.src;
  };
  std::sort(events.begin(), events.end(), less);
}

double StackelbergSolver::TotalTimeAt(double collection_price) const {
  const util::Interval& box = config_.collection_price_bounds;
  double p = box.Clamp(collection_price);
  // Last kink with price <= p.
  auto it = std::upper_bound(
      kinks_.begin(), kinks_.end(), p,
      [](double x, const SupplyKink& k) { return x < k.price; });
  const SupplyKink& k = *(it - 1);
  double s = k.a * p - k.b + k.c;
  return s > 0.0 ? s : 0.0;
}

double StackelbergSolver::PlatformBestPrice(double consumer_price) const {
  // The naive per-segment sweep's candidates are box.lo, then per segment
  // its interior optimum (when it lies strictly inside) and its upper
  // endpoint; the first candidate attaining the maximum wins. The envelope
  // index narrows the segments to the bucket of x's piece, which holds
  // every candidate that can attain that maximum (EnvelopeIndex), and the
  // arithmetic and comparisons below are the sweep's.
  const util::Interval& box = config_.collection_price_bounds;
  const double theta = config_.platform.theta;
  const double lambda = config_.platform.lambda;
  const double x = consumer_price;

  const std::vector<double>& breaks = env_.breaks;
  std::size_t bucket = env_.split.size() - 1;  // the every-segment bucket
  if (!breaks.empty() && x >= breaks.front() && x <= breaks.back()) {
    bucket = static_cast<std::size_t>(
        std::upper_bound(breaks.begin() + 1, breaks.end() - 1, x) -
        (breaks.begin() + 1));
  }
  const int* entries = env_.entries.data();
  const int window_end = env_.split[bucket];
  const int line_end = env_.begin[bucket + 1];
  const double* ep = seg_.end_price.data();
  const double* es = seg_.end_supply.data();
  const double* d1 = seg_.end_d1.data();
  const double* d2 = seg_.end_d2.data();

  // The maximum and the sweep position of its first attainer: 2j for
  // segment j's interior candidate, 2j+1 for its endpoint. Endpoint lines
  // first, max-accumulated from the first line as the sweep did.
  double best = -std::numeric_limits<double>::infinity();
  int pos = -1;
  for (int i = window_end; i < line_end; ++i) {
    const int j = entries[i];
    const double v = (x - ep[j]) * es[j] - d1[j] - d2[j];
    if (pos < 0 || best < v) {
      best = v;
      pos = 2 * j + 1;
    }
  }
  const double* wlo = seg_.window_lo.data();
  const double* whi = seg_.window_hi.data();
  double interior_p = 0.0;
  for (int i = env_.begin[bucket]; i < window_end; ++i) {
    const int j = entries[i];
    if (!(x > wlo[j] && x < whi[j])) continue;
    const SupplyKink& k = kinks_[j];
    const double p_star = (x * k.a - seg_.c[j]) / seg_.denom[j];
    if (p_star > k.price && p_star < ep[j]) {
      double s = k.a * p_star - k.b + k.c;
      if (s < 0.0) s = 0.0;  // numerical guard; S(p) >= 0 by construction
      const double val = (x - p_star) * s - theta * s * s - lambda * s;
      if (val > best || (val == best && 2 * j < pos)) {
        best = val;
        pos = 2 * j;
        interior_p = p_star;
      }
    }
  }

  const double v_init =
      (x - box.lo) * seg_.init_supply - seg_.init_d1 - seg_.init_d2;
  if (v_init >= best) return box.lo;
  // A NaN maximum matches no candidate; the naive sweep kept box.lo too.
  if (!(best == best)) return box.lo;
  return (pos & 1) != 0 ? ep[pos >> 1] : interior_p;
}

bool StackelbergSolver::InteriorRegimeHolds(double collection_price) const {
  for (std::size_t i = 0; i < config_.sellers.size(); ++i) {
    double q = config_.qualities[i];
    double a = config_.sellers[i].a;
    double b = config_.sellers[i].b;
    double tau = (collection_price - q * b) / (2.0 * q * a);
    if (tau <= 0.0 || tau >= config_.max_sensing_time) return false;
  }
  return true;
}

double StackelbergSolver::ConsumerBestPriceInterior() const {
  double qbar = agg_.mean_quality;
  double theta_c = agg_.theta_coef;    // Θ
  double lambda_c = agg_.lambda_coef;  // Λ
  double omega = config_.valuation.omega;
  // Δ = (q̄Λ + 2)² − 8 q̄ (Λ − Θ ω q̄) = (q̄Λ − 2)² + 8 Θ ω q̄² > 0.
  double t = qbar * lambda_c - 2.0;
  double delta = t * t + 8.0 * theta_c * omega * qbar * qbar;
  double pj = (3.0 * qbar * lambda_c + std::sqrt(delta) - 2.0) /
              (4.0 * qbar * theta_c);
  return config_.consumer_price_bounds.Clamp(pj);
}

double StackelbergSolver::ConsumerBestPrice() const {
  // Fast path: Theorem 16. Its functional form Φ(p^J) = ω ln(·) − Θ(p^J)²
  // + Λp^J presumes the *interior* regime — the stage-2 price unclamped by
  // its box and every seller strictly active and unsaturated. Verify all of
  // that before trusting the closed form; otherwise fall back to numeric
  // maximisation of the exact anticipated profit.
  double pj = ConsumerBestPriceInterior();
  // A clamped pj equals a box edge; require the raw optimum itself to lie
  // strictly inside so that Case 1 of Theorem 16 applies.
  double qbar = agg_.mean_quality;
  double t = qbar * agg_.lambda_coef - 2.0;
  double delta =
      t * t + 8.0 * agg_.theta_coef * config_.valuation.omega * qbar * qbar;
  double pj_raw = (3.0 * qbar * agg_.lambda_coef + std::sqrt(delta) - 2.0) /
                  (4.0 * qbar * agg_.theta_coef);
  if (pj_raw > config_.consumer_price_bounds.lo &&
      pj_raw < config_.consumer_price_bounds.hi) {
    // Unclamped stage-2 interior response at pj.
    double a = agg_.a_sum;
    double b = agg_.b_sum;
    double theta = config_.platform.theta;
    double lambda = config_.platform.lambda;
    double c = lambda * a - 2.0 * theta * a * b - b;
    double p_raw = (pj * a - c) / (2.0 * a * (1.0 + theta * a));
    const util::Interval& pbox = config_.collection_price_bounds;
    if (p_raw > pbox.lo && p_raw < pbox.hi && InteriorRegimeHolds(p_raw)) {
      return pj;
    }
  }
  // Fallback: the anticipated profit F(p^J) = Φ(p^J, p*(p^J)) is piecewise
  // smooth — on every supply segment where the platform's best response is
  // interior, F has exactly the Theorem-16 form with that segment's
  // aggregates. Candidates: each segment's closed-form stationary point,
  // a coarse grid (for regime-switch maxima), and the box endpoints; the
  // best candidate is then refined by golden section on its bracket.
  const util::Interval& box = config_.consumer_price_bounds;
  std::vector<double> candidates;
  candidates.reserve(kinks_.size() + 70);
  candidates.push_back(box.lo);
  candidates.push_back(box.hi);
  double omega = config_.valuation.omega;
  double theta = config_.platform.theta;
  double lambda = config_.platform.lambda;
  for (std::size_t j = 0; j < kinks_.size(); ++j) {
    const SupplyKink& kink = kinks_[j];
    if (kink.a <= 0.0) continue;
    double a = kink.a;
    double b_eff = kink.b - kink.c;
    double denom = 2.0 * (1.0 + theta * a);
    double theta_c = a / denom;
    double c = lambda * a - 2.0 * theta * a * b_eff - b_eff;
    double lambda_c = c / denom + b_eff;
    double tt = qbar * lambda_c - 2.0;
    double dd = tt * tt + 8.0 * theta_c * omega * qbar * qbar;
    double cand = (3.0 * qbar * lambda_c + std::sqrt(dd) - 2.0) /
                  (4.0 * qbar * theta_c);
    if (cand > box.lo && cand < box.hi) candidates.push_back(cand);
    // Regime-switch candidates: the p^J at which this segment's stage-2
    // optimum p*_j(p^J) = (p^J a − c)/(2a(1+θa)) crosses the segment's
    // boundary kinks — the anticipated profit has kinks there.
    double seg_lo = kink.price;
    double seg_hi = j + 1 < kinks_.size()
                        ? kinks_[j + 1].price
                        : config_.collection_price_bounds.hi;
    for (double boundary : {seg_lo, seg_hi}) {
      double pj_cross = denom * boundary + c / a;
      if (pj_cross > box.lo && pj_cross < box.hi) {
        candidates.push_back(pj_cross);
      }
    }
  }
  constexpr int kGrid = 128;
  double step = box.width() / kGrid;
  for (int i = 1; i < kGrid; ++i) {
    candidates.push_back(box.lo + step * static_cast<double>(i));
  }

  double best = box.lo;
  double best_value = ConsumerProfitAnticipating(box.lo);
  for (double cand : candidates) {
    double v = ConsumerProfitAnticipating(cand);
    if (v > best_value) {
      best_value = v;
      best = cand;
    }
  }
  // Golden refinement on the bracket around the winner.
  double lo = std::max(box.lo, best - step);
  double hi = std::min(box.hi, best + step);
  auto [argmax, value] = util::GoldenSectionMax(
      [this](double price) { return ConsumerProfitAnticipating(price); }, lo,
      hi, 1e-12);
  if (value > best_value) {
    best_value = value;
    best = argmax;
  }
  // Jump refinement: the platform's *global* best response can switch
  // supply segments discontinuously as p^J varies (tie between two
  // segments' optima), and the anticipated profit F then jumps — its
  // maximum may sit exactly at the switch point, which neither the grid
  // nor golden section locates. Bisect on the segment identity of the
  // best response within the bracket and evaluate both sides of the jump.
  auto segment_of = [this](double pj) {
    double p = PlatformBestPrice(pj);
    auto it = std::upper_bound(
        kinks_.begin(), kinks_.end(), p,
        [](double x, const SupplyKink& k) { return x < k.price; });
    return static_cast<std::size_t>(it - kinks_.begin());
  };
  double jlo = lo, jhi = hi;
  if (segment_of(jlo) != segment_of(jhi)) {
    std::size_t seg_lo = segment_of(jlo);
    for (int iter = 0; iter < 60 && jhi - jlo > 1e-12; ++iter) {
      double mid = 0.5 * (jlo + jhi);
      if (segment_of(mid) == seg_lo) {
        jlo = mid;
      } else {
        jhi = mid;
      }
    }
    for (double cand : {jlo, jhi}) {
      double v = ConsumerProfitAnticipating(cand);
      if (v > best_value) {
        best_value = v;
        best = cand;
      }
    }
  }
  return best;
}

StrategyProfile StackelbergSolver::Solve() const {
  // Backward induction over the three stages (Thms. 16, 15, 14), each
  // under its own span/latency histogram. The stage methods themselves
  // stay uninstrumented: ConsumerBestPrice calls PlatformBestPrice many
  // times while anticipating, which would flood the trace with sub-spans.
  CDT_SPAN("game.solve");
  double pj;
  {
    CDT_SPAN_TIMED("game.stage1.consumer_price",
                   [] { return StageSolveHistogram("consumer"); });
    pj = ConsumerBestPrice();
  }
  double p;
  {
    CDT_SPAN_TIMED("game.stage2.platform_price",
                   [] { return StageSolveHistogram("platform"); });
    p = PlatformBestPrice(pj);
  }
  std::vector<double> tau;
  {
    CDT_SPAN_TIMED("game.stage3.seller_times",
                   [] { return StageSolveHistogram("sellers"); });
    tau = SellerBestTimes(p);
  }
  return EvaluateProfile(pj, p, tau);
}

double StackelbergSolver::ConsumerProfitAnticipating(
    double consumer_price) const {
  double p = PlatformBestPrice(consumer_price);
  return ConsumerProfit(consumer_price, agg_.mean_quality, TotalTimeAt(p),
                        config_.valuation);
}

double StackelbergSolver::PlatformProfitAnticipating(
    double consumer_price, double collection_price) const {
  return PlatformProfit(consumer_price, collection_price,
                        TotalTimeAt(collection_price), config_.platform);
}

StrategyProfile StackelbergSolver::EvaluateProfile(
    double consumer_price, double collection_price,
    const std::vector<double>& tau) const {
  StrategyProfile profile;
  profile.consumer_price = consumer_price;
  profile.collection_price = collection_price;
  profile.tau = tau;
  profile.total_time = TotalTime(tau);
  profile.consumer_profit =
      ConsumerProfit(consumer_price, agg_.mean_quality, profile.total_time,
                     config_.valuation);
  profile.platform_profit = PlatformProfit(
      consumer_price, collection_price, profile.total_time, config_.platform);
  profile.seller_profits.resize(tau.size());
  for (std::size_t i = 0; i < tau.size(); ++i) {
    profile.seller_profits[i] =
        SellerProfit(collection_price, tau[i], config_.sellers[i],
                     config_.qualities[i]);
  }
  return profile;
}

}  // namespace game
}  // namespace cdt
