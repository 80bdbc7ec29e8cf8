// Tests of the benchmark's percentile code and shard-FIFO completion
// tracker. Plain asserts that stay on in every build; exit 0 = pass.
//
//   cmake --build .bench_build --target svcbench_test
//   ctest --test-dir .bench_build -R svcbench_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentile() {
  using svcbench::Percentile;
  Expect(std::isnan(Percentile({}, 0.5)), "empty sample gives NaN");
  Expect(Near(Percentile({7.0}, 0.99), 7.0), "single sample at any q");
  // Unsorted input; type-7 interpolation: rank = q * (n - 1).
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  Expect(Near(Percentile(v, 0.0), 1.0), "q=0 is the minimum");
  Expect(Near(Percentile(v, 1.0), 4.0), "q=1 is the maximum");
  Expect(Near(Percentile(v, 0.5), 2.5), "median of 1..4 is 2.5");
  Expect(Near(Percentile(v, 0.25), 1.75), "q=0.25 of 1..4 is 1.75");
  Expect(Near(Percentile(v, 2.0), 4.0), "q above 1 clamps");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 0.99), 99.01), "p99 of 1..100");
  Expect(svcbench::SamplesBeyond(hundred, 0.99) == 1,
         "one sample beyond p99 of 1..100");
  Expect(Near(svcbench::Median({5.0, 1.0, 9.0}), 5.0), "odd-size median");
}

void TestCompletionTracker() {
  // Shard 0 had processed 10 events and shard 1 had processed 3 when
  // tracking began.
  svcbench::CompletionTracker tracker({10, 3});
  tracker.Expect(0, 100, 0);  // settles at processed >= 11
  tracker.Expect(1, 200, 1);  // settles at processed >= 4
  tracker.Expect(0, 300, 2);  // settles at processed >= 12
  tracker.Expect(0, 400, 3);  // settles at processed >= 13
  Expect(tracker.pending() == 4, "four pending");

  std::vector<std::pair<std::size_t, std::int64_t>> settled;
  auto sink = [&](std::size_t tag, std::int64_t due, std::int64_t now) {
    settled.push_back({tag, now - due});
  };
  Expect(tracker.Observe(0, 10, 1000, sink) == 0,
         "counter at its base settles nothing");
  Expect(tracker.Observe(1, 3, 1000, sink) == 0, "other shard at its base");
  Expect(tracker.Observe(0, 12, 1000, sink) == 2,
         "counter 12 settles the first two events of shard 0");
  Expect(settled.size() == 2 && settled[0].first == 0 &&
             settled[1].first == 2,
         "settled in FIFO order");
  Expect(settled[0].second == 900 && settled[1].second == 700,
         "latency is observation time minus due time");
  Expect(tracker.pending(0) == 1 && tracker.pending(1) == 1,
         "one left on each shard");
  Expect(tracker.Observe(1, 9, 1500, sink) == 1,
         "a counter past the position settles the event");
  Expect(tracker.Observe(0, 12, 2000, sink) == 0,
         "a repeated reading settles nothing new");
  Expect(tracker.Observe(0, 13, 2000, sink) == 1, "last event settles");
  Expect(tracker.pending() == 0, "nothing pending");
  Expect(settled.back().first == 3 && settled.back().second == 1600,
         "last event's tag and latency");
}

}  // namespace

int main() {
  TestPercentile();
  TestCompletionTracker();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("svcbench_test: all checks passed\n");
  return EXIT_SUCCESS;
}
