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
    const int src = 2 * static_cast<int>(i);
    if (activate > box.lo && activate < box.hi) {
      events.push_back({activate, inv, off, 0.0, src});
    }
    if (saturate > box.lo && saturate < box.hi && std::isfinite(saturate)) {
      events.push_back({saturate, -inv, -off, t_cap, src + 1});
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
  seg_.curvature.resize(n);
  seg_.interior_lo.resize(n);
  seg_.interior_hi.resize(n);
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
      seg_.curvature[j] = k.a / (2.0 * (1.0 + theta * k.a));
      // p*_j(p^J) = (p^J·a − c)/denom is increasing in p^J, so it lies
      // strictly inside (seg_lo, seg_hi) on a single p^J interval. The
      // window is widened so the exact strict test in the query can never
      // be pruned away by the inversion's rounding.
      const double lo = (seg_lo * denom + c) / k.a;
      const double hi = (seg_hi * denom + c) / k.a;
      seg_.interior_lo[j] = lo;
      seg_.interior_hi[j] = hi;
      seg_.window_lo[j] = lo - 1e-9 * (1.0 + std::fabs(lo));
      seg_.window_hi[j] = hi + 1e-9 * (1.0 + std::fabs(hi));
    } else {
      seg_.c[j] = 0.0;
      seg_.denom[j] = 1.0;
      seg_.curvature[j] = 0.0;
      // Empty window: flat segments have no interior optimum.
      seg_.interior_lo[j] = seg_.window_lo[j] =
          std::numeric_limits<double>::infinity();
      seg_.interior_hi[j] = seg_.window_hi[j] =
          -std::numeric_limits<double>::infinity();
    }
  }
  const SupplyKink& front = kinks_.front();
  double s0 = front.a * box.lo - front.b + front.c;
  if (s0 < 0.0) s0 = 0.0;
  seg_.init_supply = s0;
  seg_.init_d1 = theta * s0 * s0;
  seg_.init_d2 = lambda * s0;
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
  int pos;
  return PlatformBestPrice(consumer_price, &pos);
}

double StackelbergSolver::PlatformBestPrice(double consumer_price,
                                            int* answer_pos) const {
  // The per-segment sweep's candidates are box.lo, then per segment its
  // interior optimum (when it lies strictly inside) and its upper endpoint;
  // the first candidate attaining the maximum wins.
  const util::Interval& box = config_.collection_price_bounds;
  const double theta = config_.platform.theta;
  const double lambda = config_.platform.lambda;
  const double x = consumer_price;
  const int n = static_cast<int>(kinks_.size());
  const double* ep = seg_.end_price.data();
  const double* es = seg_.end_supply.data();
  const double* d1 = seg_.end_d1.data();
  const double* d2 = seg_.end_d2.data();

  // The maximum and the sweep position of its first attainer: 2j for
  // segment j's interior candidate, 2j+1 for its endpoint. Endpoint lines
  // first, max-accumulated from the first line as the sweep did.
  double best = -std::numeric_limits<double>::infinity();
  int pos = -1;
  for (int j = 0; j < n; ++j) {
    const double v = (x - ep[j]) * es[j] - d1[j] - d2[j];
    if (pos < 0 || best < v) {
      best = v;
      pos = 2 * j + 1;
    }
  }
  const double* wlo = seg_.window_lo.data();
  const double* whi = seg_.window_hi.data();
  double interior_p = 0.0;
  for (int j = 0; j < n; ++j) {
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
  // A NaN maximum matches no candidate; the naive sweep kept box.lo too.
  if (v_init >= best || !(best == best)) {
    *answer_pos = -1;
    return box.lo;
  }
  *answer_pos = pos;
  return (pos & 1) != 0 ? ep[pos >> 1] : interior_p;
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

double StackelbergSolver::PositionValue(int pos, double x,
                                        double* supply) const {
  const int j = pos >> 1;  // pos = -1 (box.lo) gives -1
  if ((pos & 1) != 0) {
    if (j < 0) {
      *supply = seg_.init_supply;
      return (x - config_.collection_price_bounds.lo) * seg_.init_supply -
             seg_.init_d1 - seg_.init_d2;
    }
    *supply = seg_.end_supply[j];
    return (x - seg_.end_price[j]) * seg_.end_supply[j] - seg_.end_d1[j] -
           seg_.end_d2[j];
  }
  const SupplyKink& k = kinks_[j];
  const double p = (x * k.a - seg_.c[j]) / seg_.denom[j];
  double s = k.a * p - k.b + k.c;
  if (s < 0.0) s = 0.0;
  *supply = s;
  return (x - p) * s - config_.platform.theta * s * s -
         config_.platform.lambda * s;
}

double StackelbergSolver::ConsumerSupply(int pos, double x) const {
  // TotalTimeAt's expressions at the price played; a price point lies on
  // the last kink at or below it.
  double s;
  if (pos < 0) {
    const SupplyKink& k = kinks_.front();
    s = k.a * config_.collection_price_bounds.lo - k.b + k.c;
  } else if ((pos & 1) != 0) {
    const std::size_t j = static_cast<std::size_t>(pos >> 1);
    const SupplyKink& k = kinks_[std::min(j + 1, kinks_.size() - 1)];
    s = k.a * seg_.end_price[j] - k.b + k.c;
  } else {
    const std::size_t j = static_cast<std::size_t>(pos >> 1);
    const SupplyKink& k = kinks_[j];
    s = k.a * ((x * k.a - seg_.c[j]) / seg_.denom[j]) - k.b + k.c;
  }
  return s > 0.0 ? s : 0.0;
}

double StackelbergSolver::Overtake(const RegimePartition& rg, int i, int j,
                                   double from) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double* lo = seg_.interior_lo.data();
  const double* hi = seg_.interior_hi.data();
  if (i == rg.below[j] && lo[j] < hi[j]) {
    // G_j's lower line is G_i's upper line, so G_j cannot exceed G_i
    // before its own window opens.
    if (rg.cross[j] == rg.cross[j]) return rg.cross[j];
    from = std::max(from, lo[j]);
  }
  // D = G_j − G_i is piecewise quadratic between the windows' ends; on
  // each piece D(x + y) = d0 + d1·y + d2·y² exactly (value, supply and half
  // the curvature Θ of each side's sweep position).
  double bp[4];
  int nb = 0;
  auto add = [&](double b) {
    if (!(b > from)) return;
    int k = nb++;
    for (; k > 0 && bp[k - 1] > b; --k) bp[k] = bp[k - 1];
    bp[k] = b;
  };
  if (i >= 0) {
    add(lo[i]);
    add(hi[i]);
  }
  add(lo[j]);
  add(hi[j]);
  auto position_above = [&](int g, double x) {
    if (g < 0) return -1;
    return x >= hi[g] ? 2 * g + 1 : (x < lo[g] ? 2 * g - 1 : 2 * g);
  };
  auto curvature = [&](int pos) {
    return (pos & 1) != 0 ? 0.0 : seg_.curvature[pos >> 1];
  };
  // A sign is trusted only beyond the values' rounding: where G_j touches
  // G_i from below (G_i's interior optimum running into the end point
  // that G_j starts from), D's maximum is 0 and rounding alone would make
  // it positive.
  constexpr double kNoise = 4.0 * std::numeric_limits<double>::epsilon();
  double x = from;
  for (int k = 0; k <= nb; ++k) {
    const double next = k < nb ? bp[k] : kInf;
    const int pi = position_above(i, x);
    const int pj = position_above(j, x);
    double si, sj;
    const double vi = PositionValue(pi, x, &si);
    const double vj = PositionValue(pj, x, &sj);
    const double d0 = vj - vi;
    const double noise = kNoise * (std::fabs(vi) + std::fabs(vj));
    if (d0 > noise) return x;
    const double d1 = sj - si;
    const double d2 = 0.5 * (curvature(pj) - curvature(pi));
    const double span = next - x;
    const bool turns =
        next == kInf ? d2 > 0.0 || (d2 == 0.0 && d1 > 0.0)
                     : d0 + span * (d1 + d2 * span) >
                           noise + kNoise * span * (si + sj);
    if (turns) {
      // The upward root, in the form that does not cancel.
      const double sq = std::sqrt(std::max(0.0, d1 * d1 - 4.0 * d2 * d0));
      double y = d1 >= 0.0 ? -2.0 * d0 / (d1 + sq) : (sq - d1) / (2.0 * d2);
      if (!(y >= 0.0)) y = 0.0;
      return y < span ? x + y : next;
    }
    x = next;
  }
  return kInf;
}

void StackelbergSolver::BuildRegimePartition(RegimePartition* out) const {
  RegimePartition& rg = *out;
  const double x_lo = config_.consumer_price_bounds.lo;
  const double x_hi = config_.consumer_price_bounds.hi;
  const double* es = seg_.end_supply.data();
  const double* lo = seg_.interior_lo.data();
  const double* hi = seg_.interior_hi.data();
  const int n = static_cast<int>(kinks_.size());
  rg.phi.resize(kinks_.size());
  rg.below.resize(kinks_.size());
  rg.cross.resize(kinks_.size());
  // Per segment, independent of the stack (so the divisions pipeline).
  for (int j = 0; j < n; ++j) {
    const double a = kinks_[j].a;
    if (!(a > 0.0)) continue;
    rg.phi[j] = std::sqrt(2.0 * seg_.curvature[j]);
    // The G sharing segment j's lower line: segment j − 1's (box.lo's for
    // j = 0); none when segment j − 1 is flat.
    const int below = j == 0 ? -1 : (kinks_[j - 1].a > 0.0 ? j - 1 : -2);
    rg.below[j] = below;
    double cross = std::numeric_limits<double>::quiet_NaN();
    if (below >= -1 && lo[j] < hi[j]) {
      if (below < 0 || hi[below] <= lo[j]) {
        // G_below is on the shared line before G_j leaves it (at a
        // saturation kink, tangentially).
        cross = lo[j];
      } else {
        // An activation kink: both interior optima run on [lo_j, hi_i]
        // (i = below), as the parabolas s²/(2Θ) with supplies σ +
        // Θ_j·(x − lo_j) and σ + Θ_i·(x − hi_i), σ the kink's supply.
        // They cross where s/√Θ agree (the common tangent of the two
        // cost arcs): at lo_j + σ·(1/√Θ_i − 1/√Θ_j)/(2√Θ_j), which is
        // the expression below without the cancellation (1/Θ = 2/a + 2θ).
        // Outside G_i's window the generic search runs.
        const int i = below;
        const double ai = kinks_[i].a;
        const double x = lo[j] + es[i] * (a - ai) * rg.phi[i] /
                                     (ai * a * (rg.phi[i] + rg.phi[j]));
        if (x >= lo[i] && x <= hi[j]) cross = x;
      }
    }
    rg.cross[j] = cross;
  }

  std::vector<int>& seg = rg.seg;
  std::vector<double>& start = rg.start;
  seg.reserve(kinks_.size() + 1);
  start.reserve(kinks_.size() + 1);
  seg.assign(1, -1);
  start.assign(1, x_lo);
  for (int j = 0; j < n; ++j) {
    // A flat segment's best price is its lower end, which the segment
    // below (or box.lo) already offers.
    if (!(kinks_[j].a > 0.0)) continue;
    double from = x_lo;
    while (!seg.empty()) {
      const double cross = Overtake(rg, seg.back(), j, start.back());
      if (cross > start.back()) {
        from = cross;
        break;
      }
      seg.pop_back();
      start.pop_back();
    }
    if (seg.empty() || from < x_hi) {
      seg.push_back(j);
      start.push_back(from);
    }
  }
}

StackelbergSolver::RegimeWalk StackelbergSolver::WalkRegimes() const {
  const double x_lo = config_.consumer_price_bounds.lo;
  const double x_hi = config_.consumer_price_bounds.hi;
  const double qbar = agg_.mean_quality;
  const double omega = config_.valuation.omega;
  const double theta = config_.platform.theta;
  const double* es = seg_.end_supply.data();
  const double* lo = seg_.interior_lo.data();
  const double* hi = seg_.interior_hi.data();
  const double* curvature = seg_.curvature.data();

  // The incumbent: Theorem 16's point, valued at the platform's actual
  // response there.
  RegimeWalk walk;
  RegimePoint& inc = walk.choice;
  double best_supply;
  {
    const double x = ConsumerBestPriceInterior();
    walk.response = PlatformBestPrice(x, &walk.response_pos);
    best_supply = TotalTimeAt(walk.response);
    inc = {x, ConsumerProfit(x, qbar, best_supply, config_.valuation), -2,
           false, false};
  }
  RegimePoint& best = walk.best;
  best = inc;
  if (!(best.profit == best.profit)) {
    best.profit = -std::numeric_limits<double>::infinity();
  }

  // ω ln(1 + q̄s) is concave in s, so its tangent at the best point's
  // supply bounds it: F(x, s) <= c0 + (t1 − x)·s. A regime whose bound
  // cannot beat the best by more than 1e-12 relative (which would not
  // change the choice) is skipped without a log; the slack also covers the
  // bound's rounding.
  double t1 = 0.0, c0 = 0.0, bar = 0.0;
  auto retangent = [&] {
    t1 = omega * qbar / (1.0 + qbar * best_supply);
    c0 = best.profit + (best.price - t1) * best_supply;
    bar = best.profit + 1e-12 * std::max(1.0, std::fabs(best.profit));
  };
  retangent();
  // The same bound along an interior optimum that starts at a0 with supply
  // s0 and rises with slope Θ until a1: the concave quadratic
  // c0 + (τ − y)·(s0 + Θy) in y = x − a0 (τ = t1 − a0), whose maximum is at
  // y = (τ − s0/Θ)/2, clamped.
  auto arc_bound = [&](double a0, double a1, double s0, double curv) {
    const double tau = t1 - a0;
    const double y = std::min(a1 - a0, std::max(0.0, 0.5 * (tau - s0 / curv)));
    return c0 + (tau - y) * (s0 + curv * y);
  };

  // Certificate without the partition. Wherever the platform plays box.lo
  // (x >= x_lo), segment g's interior optimum (only on its window [lo_g,
  // hi_g]) or its upper end (only at x >= hi_g), the bound holds with that
  // candidate's supply; a flat segment's end points lose to the lower one.
  // If no candidate's bound over where it can play beats the incumbent,
  // nothing does. Segment g's window starts at lo_g and its supply lies
  // between its ends' (a first, cheap bound); survivors get the bounds
  // above.
  if (best.profit > -std::numeric_limits<double>::infinity()) {
    bool certified = c0 + (t1 - x_lo) * ConsumerSupply(-1, x_lo) <= bar;
    for (std::size_t g = 0; certified && g < kinks_.size(); ++g) {
      // Where any of segment g's candidates can first play; a flat
      // segment's lose to lower ones.
      const double from = std::max(x_lo, std::min(lo[g], hi[g]));
      if (!(kinks_[g].a > 0.0 && from <= x_hi)) continue;
      const double s_lo = g > 0 ? es[g - 1] : seg_.init_supply;
      if (c0 + (t1 - from) * (t1 > from ? es[g] : s_lo) <= bar) continue;
      // A window empty by rounding (or not finite): leave it to the walk.
      certified = lo[g] < hi[g];
      const double a0 = std::max(lo[g], x_lo);
      const double a1 = std::min(hi[g], x_hi);
      if (certified && a0 < a1) {
        const double curv = curvature[g];
        certified =
            arc_bound(a0, a1, s_lo + curv * (a0 - lo[g]), curv) <= bar;
      }
      if (certified && hi[g] < x_hi) {
        const double x = std::max(hi[g], x_lo);
        certified =
            c0 + (t1 - x) * ConsumerSupply(2 * static_cast<int>(g) + 1, x) <=
            bar;
      }
    }
    if (certified) return walk;
  }

  RegimePartition rg;
  BuildRegimePartition(&rg);
  const std::vector<int>& seg = rg.seg;
  const std::vector<double>& start = rg.start;
  const int regimes = static_cast<int>(seg.size());
  auto consider = [&](int pos, double x, double s, bool edge) {
    const double f = ConsumerProfit(x, qbar, s, config_.valuation);
    if (f > best.profit) {
      best = {x, f, pos, edge, pos >= 0 && x == hi[pos >> 1]};
      best_supply = s;
      retangent();
    }
  };
  // A line regime sells a constant supply, so the profit falls in x: its
  // maximum is at its left end.
  auto line = [&](int pos, double x, bool edge) {
    const double s = ConsumerSupply(pos, x);
    if (c0 + (t1 - x) * s <= bar) return;
    consider(pos, x, s, edge);
  };
  // An interior regime [a0, a1] of segment g, whose envelope entry holds
  // [u, v]: the supply is affine in x with slope Θ, so the profit is
  // concave and peaks at the segment's Theorem-16 point, clamped to the
  // regime. The supply lies between the segment ends', which bounds
  // (t1 − x)·s first; survivors get the exact bound along the regime.
  auto arc = [&](int g, double a0, double a1, double u, double v, bool first,
                 bool last) {
    const double s_lo = g > 0 ? es[g - 1] : seg_.init_supply;
    if (c0 + (t1 - a0) * (t1 > a0 ? es[g] : s_lo) <= bar) return;
    const double theta_c = curvature[g];
    if (arc_bound(a0, a1, s_lo + theta_c * (a0 - lo[g]), theta_c) <= bar) {
      return;
    }
    // Theorem 16 with segment g's aggregates.
    const SupplyKink& k = kinks_[g];
    const double lambda_c =
        seg_.c[g] / (2.0 * (1.0 + theta * k.a)) + (k.b - k.c);
    const double tt = qbar * lambda_c - 2.0;
    const double dd = tt * tt + 8.0 * theta_c * omega * qbar * qbar;
    double x =
        (3.0 * qbar * lambda_c + std::sqrt(dd) - 2.0) / (4.0 * qbar * theta_c);
    if (!(x > a0)) x = a0;
    if (x > a1) x = a1;
    consider(2 * g, x, ConsumerSupply(2 * g, x),
             (x == u && !first) || (x == v && !last));
  };

  for (int r = 0; r < regimes; ++r) {
    const int g = seg[r];
    const double u = start[r];
    const double v = r + 1 < regimes ? start[r + 1] : x_hi;
    if (g < 0) {
      line(-1, u, r > 0);
      continue;
    }
    if (u < std::min(lo[g], hi[g])) line(2 * g - 1, u, r > 0);
    const double a0 = std::max(u, lo[g]);
    const double a1 = std::min(v, hi[g]);
    if (a0 < a1) arc(g, a0, a1, u, v, r == 0, r + 1 == regimes);
    if (hi[g] < v) {
      const double x = std::max(u, hi[g]);
      line(2 * g + 1, x, x == u && r > 0);
    }
  }
  if (!(best.profit - inc.profit <=
        1e-12 * std::max(1.0, std::fabs(inc.profit)))) {
    inc = best;
    walk.response = std::numeric_limits<double>::quiet_NaN();
  }
  return walk;
}

double StackelbergSolver::ConsumerBestPrice() const {
  double response;
  int response_pos;
  return ConsumerBestPrice(&response, &response_pos);
}

double StackelbergSolver::ConsumerBestPrice(double* response,
                                            int* response_pos) const {
  const RegimeWalk walk = WalkRegimes();
  const RegimePoint& pt = walk.choice;
  *response = walk.response;
  *response_pos = walk.response_pos;
  if (pt.tangent) {
    const int g = pt.pos >> 1;
    // The walk stops at segment g's tangency x_t, where its interior
    // optimum meets the upper end point and the consumer still wants more
    // supply. Left of it the end point is exactly worse for the platform,
    // by Θ/2·(x − x_t)², but PlatformBestPrice compares rounded values and
    // may still pick it, selling the end's supply at a lower price: a
    // rounding artefact, worth (x_t − x)·es to the consumer, at most
    // ~2.5e-9 relative. The scan exists only so that Stage 1 is never
    // beaten by such a point by more than the tests' 1e-9 relative: the
    // heuristic oracle's grid and golden section land on them. Rounding
    // flips the choice at scattered prices, with no monotone rule to
    // bisect, so the band is sampled and the leftmost winning sample is
    // taken. The end point can win only while Θ/2·(x − x_t)² is below the
    // two values' rounding: each is computed within 2ε·M of its exact
    // value, M the values' magnitude (DESIGN.md §1), so only within
    // √(8ε·M/Θ) of x_t; wins thin out well before that edge. The width
    // 1.5·√(ε·M/Θ) and the 256 samples are measured, not derived: over the
    // oracle fuzz (DESIGN.md §1) they leave the walk at most 3.3e-10
    // behind the heuristic, where the worst-case width or 128 samples
    // leave 8.8e-10 and 1.3e-9.
    const double x_t = pt.price;
    const SupplyKink& k = kinks_[g];
    const double ep = seg_.end_price[g], es = seg_.end_supply[g];
    const double magnitude =
        std::fabs(x_t) * es + ep * es + seg_.end_d1[g] + seg_.end_d2[g];
    const double band =
        1.5 * std::sqrt(std::numeric_limits<double>::epsilon() * magnitude /
                        seg_.curvature[g]);
    constexpr int kScan = 256;
    for (int i = kScan; i > 0; --i) {
      const double x =
          std::max(config_.consumer_price_bounds.lo, x_t - band * i / kScan);
      // PlatformBestPrice's own comparison of the two candidates (the
      // interior optimum counts only strictly inside the segment).
      double s;
      if (x > seg_.window_lo[g] && x < seg_.window_hi[g]) {
        const double p = (x * k.a - seg_.c[g]) / seg_.denom[g];
        if (p > k.price && p < ep &&
            !(PositionValue(2 * g + 1, x, &s) > PositionValue(2 * g, x, &s))) {
          continue;
        }
      }
      if (PlatformBestPrice(x) == ep &&
          ConsumerProfit(x, agg_.mean_quality, ConsumerSupply(2 * g + 1, x),
                         config_.valuation) > pt.profit) {
        return x;
      }
    }
  }
  if (!pt.edge) return pt.price;
  // On a regime boundary the walk's value is a one-sided limit. Keep the
  // price if the platform's response there is the regime's; otherwise the
  // response jumps at a point the walk placed within rounding, so bisect a
  // bracket of at most 1e-9 for the regime's side of the jump.
  const util::Interval& box = config_.consumer_price_bounds;
  const double x = pt.price;
  const double p = PlatformBestPrice(x);
  const double f =
      ConsumerProfit(x, agg_.mean_quality, TotalTimeAt(p), config_.valuation);
  if (f >= pt.profit - 1e-12 * std::max(1.0, std::fabs(pt.profit))) return x;
  // Where the response lies against the regime's prices: −1 below, +1
  // above, 0 inside.
  const int j = pt.pos >> 1;
  auto side = [&](double price) {
    if (pt.pos < 0) return price > config_.collection_price_bounds.lo ? 1 : 0;
    const double end = seg_.end_price[j];
    if ((pt.pos & 1) != 0) return price < end ? -1 : (price > end ? 1 : 0);
    return price <= kinks_[j].price ? -1 : (price >= end ? 1 : 0);
  };
  const int dir = side(p);
  if (dir == 0) return x;
  const double w = 1e-9 * std::max(1.0, std::fabs(x));
  double in = dir > 0 ? std::max(box.lo, x - w) : std::min(box.hi, x + w);
  if (side(PlatformBestPrice(in)) == dir) return x;
  double out = x;
  for (;;) {
    const double mid = in + 0.5 * (out - in);
    if (mid == in || mid == out) break;
    (side(PlatformBestPrice(mid)) == dir ? out : in) = mid;
  }
  return ConsumerProfitAnticipating(in) > f ? in : x;
}

StackelbergSolver::ConsumerSupremum StackelbergSolver::ConsumerProfitSupremum()
    const {
  const RegimePoint best = WalkRegimes().best;
  return {best.profit, best.price};
}

StrategyProfile StackelbergSolver::Solve(SolveProof* proof) const {
  // Backward induction over the three stages (Thms. 16, 15, 14), each
  // under its own span/latency histogram. The stage methods themselves
  // stay uninstrumented: ConsumerBestPrice may bisect a jump of the
  // platform's response, which would flood the trace with sub-spans.
  CDT_SPAN("game.solve");
  double pj, p;
  int pos;
  {
    CDT_SPAN_TIMED("game.stage1.consumer_price",
                   [] { return StageSolveHistogram("consumer"); });
    pj = ConsumerBestPrice(&p, &pos);
  }
  {
    // Stage 1 has usually evaluated the response to its own price.
    CDT_SPAN_TIMED("game.stage2.platform_price",
                   [] { return StageSolveHistogram("platform"); });
    if (!(p == p)) p = PlatformBestPrice(pj, &pos);
  }
  if (proof != nullptr) {
    proof->platform_pos = pos;
    proof->kink_order.clear();
    for (const KinkEvent& e : event_scratch_) {
      proof->kink_order.push_back(e.src);
    }
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
