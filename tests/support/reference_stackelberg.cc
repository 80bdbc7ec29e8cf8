#include "support/reference_stackelberg.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "game/profit.h"
#include "util/math_util.h"

namespace cdt {
namespace testsupport {

namespace {

struct Event {
  double price;
  double delta_a, delta_b, delta_c;
  int src;
};

}  // namespace

ReferenceStackelberg::ReferenceStackelberg(game::GameConfig config)
    : config_(std::move(config)), agg_(game::ComputeAggregates(config_)) {
  const util::Interval& box = config_.collection_price_bounds;
  const double t_cap = config_.max_sensing_time;
  std::vector<Event> events;
  double a_lin = 0.0, b_lin = 0.0, c_const = 0.0;  // state at p = box.lo
  for (std::size_t i = 0; i < config_.sellers.size(); ++i) {
    const double q = config_.qualities[i];
    const double a = config_.sellers[i].a;
    const double b = config_.sellers[i].b;
    const double activate = q * b;
    const double saturate = activate + 2.0 * q * a * t_cap;
    const double inv = 1.0 / (2.0 * q * a);
    const double off = b / (2.0 * a);
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
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    if (x.price != y.price) return x.price < y.price;
    if (x.delta_a != y.delta_a) return x.delta_a < y.delta_a;
    if (x.delta_b != y.delta_b) return x.delta_b < y.delta_b;
    if (x.delta_c != y.delta_c) return x.delta_c < y.delta_c;
    return x.src < y.src;
  });
  kinks_.push_back({box.lo, a_lin, b_lin, c_const});
  for (const Event& e : events) {
    a_lin += e.delta_a;
    b_lin += e.delta_b;
    c_const += e.delta_c;
    if (e.price == kinks_.back().price) {
      kinks_.back() = {e.price, a_lin, b_lin, c_const};
    } else {
      kinks_.push_back({e.price, a_lin, b_lin, c_const});
    }
  }
}

double ReferenceStackelberg::PlatformBestPrice(double consumer_price) const {
  const util::Interval& box = config_.collection_price_bounds;
  const double theta = config_.platform.theta;
  const double lambda = config_.platform.lambda;

  auto profit_at = [&](double p, const Kink& k) {
    double s = k.a * p - k.b + k.c;
    if (s < 0.0) s = 0.0;
    return (consumer_price - p) * s - theta * s * s - lambda * s;
  };

  double best_p = box.lo;
  double best_profit = profit_at(box.lo, kinks_.front());
  for (std::size_t j = 0; j < kinks_.size(); ++j) {
    const Kink& k = kinks_[j];
    const double seg_lo = k.price;
    const double seg_hi = j + 1 < kinks_.size() ? kinks_[j + 1].price : box.hi;
    if (k.a > 0.0) {
      const double b_eff = k.b - k.c;
      const double c = lambda * k.a - 2.0 * theta * k.a * b_eff - b_eff;
      const double p_star =
          (consumer_price * k.a - c) / (2.0 * k.a * (1.0 + theta * k.a));
      if (p_star > seg_lo && p_star < seg_hi) {
        const double v = profit_at(p_star, k);
        if (v > best_profit) {
          best_profit = v;
          best_p = p_star;
        }
      }
    }
    const double v_hi = profit_at(seg_hi, k);
    if (v_hi > best_profit) {
      best_profit = v_hi;
      best_p = seg_hi;
    }
  }
  return best_p;
}

double ReferenceStackelberg::TotalTimeAt(double collection_price) const {
  const double p = config_.collection_price_bounds.Clamp(collection_price);
  auto it = std::upper_bound(
      kinks_.begin(), kinks_.end(), p,
      [](double x, const Kink& k) { return x < k.price; });
  const Kink& k = *(it - 1);
  const double s = k.a * p - k.b + k.c;
  return s > 0.0 ? s : 0.0;
}

double ReferenceStackelberg::ConsumerProfitAnticipating(
    double consumer_price) const {
  const double p = PlatformBestPrice(consumer_price);
  return game::ConsumerProfit(consumer_price, agg_.mean_quality,
                              TotalTimeAt(p), config_.valuation);
}

bool ReferenceStackelberg::InteriorRegimeHolds(double collection_price) const {
  for (std::size_t i = 0; i < config_.sellers.size(); ++i) {
    const double q = config_.qualities[i];
    const double a = config_.sellers[i].a;
    const double b = config_.sellers[i].b;
    const double tau = (collection_price - q * b) / (2.0 * q * a);
    if (tau <= 0.0 || tau >= config_.max_sensing_time) return false;
  }
  return true;
}

double ReferenceStackelberg::ConsumerBestPrice() const {
  const util::Interval& box = config_.consumer_price_bounds;
  const double qbar = agg_.mean_quality;
  const double omega = config_.valuation.omega;
  const double theta = config_.platform.theta;
  const double lambda = config_.platform.lambda;
  // Theorem-16 fast path, trusted only in the interior regime.
  {
    const double t = qbar * agg_.lambda_coef - 2.0;
    const double delta = t * t + 8.0 * agg_.theta_coef * omega * qbar * qbar;
    const double pj_raw =
        (3.0 * qbar * agg_.lambda_coef + std::sqrt(delta) - 2.0) /
        (4.0 * qbar * agg_.theta_coef);
    const double pj = box.Clamp(pj_raw);
    if (pj_raw > box.lo && pj_raw < box.hi) {
      const double a = agg_.a_sum;
      const double b = agg_.b_sum;
      const double c = lambda * a - 2.0 * theta * a * b - b;
      const double p_raw = (pj * a - c) / (2.0 * a * (1.0 + theta * a));
      const util::Interval& pbox = config_.collection_price_bounds;
      if (p_raw > pbox.lo && p_raw < pbox.hi && InteriorRegimeHolds(p_raw)) {
        return pj;
      }
    }
  }
  // Candidates: box ends, each segment's Theorem-16 point and regime-switch
  // crossings, and a 128-step grid; then golden section and jump bisection.
  std::vector<double> candidates;
  candidates.push_back(box.lo);
  candidates.push_back(box.hi);
  for (std::size_t j = 0; j < kinks_.size(); ++j) {
    const Kink& kink = kinks_[j];
    if (kink.a <= 0.0) continue;
    const double a = kink.a;
    const double b_eff = kink.b - kink.c;
    const double denom = 2.0 * (1.0 + theta * a);
    const double theta_c = a / denom;
    const double c = lambda * a - 2.0 * theta * a * b_eff - b_eff;
    const double lambda_c = c / denom + b_eff;
    const double tt = qbar * lambda_c - 2.0;
    const double dd = tt * tt + 8.0 * theta_c * omega * qbar * qbar;
    const double cand = (3.0 * qbar * lambda_c + std::sqrt(dd) - 2.0) /
                        (4.0 * qbar * theta_c);
    if (cand > box.lo && cand < box.hi) candidates.push_back(cand);
    const double seg_lo = kink.price;
    const double seg_hi = j + 1 < kinks_.size()
                              ? kinks_[j + 1].price
                              : config_.collection_price_bounds.hi;
    for (double boundary : {seg_lo, seg_hi}) {
      const double pj_cross = denom * boundary + c / a;
      if (pj_cross > box.lo && pj_cross < box.hi) {
        candidates.push_back(pj_cross);
      }
    }
  }
  constexpr int kGrid = 128;
  const double step = box.width() / kGrid;
  for (int i = 1; i < kGrid; ++i) {
    candidates.push_back(box.lo + step * static_cast<double>(i));
  }

  double best = box.lo;
  double best_value = ConsumerProfitAnticipating(box.lo);
  for (double cand : candidates) {
    const double v = ConsumerProfitAnticipating(cand);
    if (v > best_value) {
      best_value = v;
      best = cand;
    }
  }
  const double lo = std::max(box.lo, best - step);
  const double hi = std::min(box.hi, best + step);
  auto [argmax, value] = util::GoldenSectionMax(
      [this](double price) { return ConsumerProfitAnticipating(price); }, lo,
      hi, 1e-12);
  if (value > best_value) {
    best_value = value;
    best = argmax;
  }
  auto segment_of = [this](double pj) {
    const double p = PlatformBestPrice(pj);
    auto it = std::upper_bound(
        kinks_.begin(), kinks_.end(), p,
        [](double x, const Kink& k) { return x < k.price; });
    return static_cast<std::size_t>(it - kinks_.begin());
  };
  double jlo = lo, jhi = hi;
  if (segment_of(jlo) != segment_of(jhi)) {
    const std::size_t seg_lo = segment_of(jlo);
    for (int iter = 0; iter < 60 && jhi - jlo > 1e-12; ++iter) {
      const double mid = 0.5 * (jlo + jhi);
      if (segment_of(mid) == seg_lo) {
        jlo = mid;
      } else {
        jhi = mid;
      }
    }
    for (double cand : {jlo, jhi}) {
      const double v = ConsumerProfitAnticipating(cand);
      if (v > best_value) {
        best_value = v;
        best = cand;
      }
    }
  }
  return best;
}

}  // namespace testsupport
}  // namespace cdt
