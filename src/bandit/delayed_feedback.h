// Delayed-feedback adapter: in deployed CDT systems the platform's
// aggregation/validation pipeline delivers quality observations several
// rounds after collection. This decorator delays the feedback to any inner
// policy by a fixed number of rounds, so the delay's effect on learning can
// be measured without touching the policies themselves.

#ifndef CDT_BANDIT_DELAYED_FEEDBACK_H_
#define CDT_BANDIT_DELAYED_FEEDBACK_H_

#include <deque>
#include <memory>

#include "bandit/policy.h"

namespace cdt {
namespace bandit {

/// Wraps `inner`; Observe() buffers each round's feedback and forwards it
/// `delay` rounds later (delay 0 = transparent passthrough). Buffered
/// feedback still pending at destruction is simply dropped, mirroring a
/// campaign that ends with results in flight.
class DelayedFeedbackPolicy : public SelectionPolicy {
 public:
  static util::Result<DelayedFeedbackPolicy> Create(
      std::unique_ptr<SelectionPolicy> inner, int delay);

  std::string name() const override;
  int num_sellers() const override { return inner_->num_sellers(); }

  util::Result<std::vector<int>> SelectRound(std::int64_t round) override;
  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override;

  /// The inner bank lags by `delay` rounds, so there is deliberately no
  /// mutable_estimator(): the engine prices from a private, prompt bank.
  const EstimatorBank* estimator() const override {
    return inner_->estimator();
  }

  /// Rounds of feedback currently buffered (0..delay).
  std::size_t pending() const { return buffer_.size(); }
  int delay() const { return delay_; }

 private:
  struct PendingRound {
    std::vector<int> selected;
    std::vector<std::vector<double>> observations;
  };

  DelayedFeedbackPolicy(std::unique_ptr<SelectionPolicy> inner, int delay)
      : inner_(std::move(inner)), delay_(delay) {}

  std::unique_ptr<SelectionPolicy> inner_;
  int delay_;
  std::deque<PendingRound> buffer_;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_DELAYED_FEEDBACK_H_
