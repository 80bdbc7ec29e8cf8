// Admission and overload control: bounded queues never exceed their cap,
// every shed is counted with an exact reason (nothing silently dropped),
// coalesced ticks are deferred-and-merged rather than lost, the capacity
// gate bounds concurrent marketplaces, and budget-stopped marketplaces
// shed round traffic at admission. autostart=false lets each test submit
// its burst single-threaded, so the expected counts are exact, not racy.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/marketplace.h"
#include "runtime/service.h"

namespace cdt {
namespace runtime {
namespace {

using Admission = MarketplaceService::Admission;
using ShedPolicy = MarketplaceService::ShedPolicy;

std::shared_ptr<const MarketplaceSpec> SmallSpec(std::uint64_t seed) {
  auto spec = std::make_shared<MarketplaceSpec>();
  spec->config.num_sellers = 8;
  spec->config.num_selected = 2;
  spec->config.num_pois = 3;
  spec->config.num_rounds = 100;
  spec->config.seed = seed;
  return spec;
}

Event CreateEvent(const std::string& id, std::uint64_t seed) {
  Event event;
  event.type = EventType::kCreateMarketplace;
  event.marketplace = id;
  event.spec = SmallSpec(seed);
  return event;
}

Event Tick(const std::string& id) {
  Event event;
  event.type = EventType::kRoundTick;
  event.marketplace = id;
  return event;
}

Event Demand(const std::string& id, std::int64_t rounds) {
  Event event;
  event.type = EventType::kConsumerDemand;
  event.marketplace = id;
  event.rounds = rounds;
  return event;
}

Event CloseEvent(const std::string& id) {
  Event event;
  event.type = EventType::kCloseMarketplace;
  event.marketplace = id;
  return event;
}

class AdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_dir_ = (std::filesystem::temp_directory_path() /
                ("cdt_admission_" + std::to_string(::getpid())))
                   .string();
    std::filesystem::remove_all(wal_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(wal_dir_); }

  MarketplaceService::Options BaseOptions(ShedPolicy policy,
                                          std::size_t capacity) {
    MarketplaceService::Options options;
    options.num_shards = 1;
    options.queue_capacity = capacity;
    options.wal_dir = wal_dir_;
    options.shed_policy = policy;
    options.autostart = false;
    options.watchdog_period = std::chrono::milliseconds(0);
    return options;
  }

  std::string wal_dir_;
};

TEST_F(AdmissionTest, RejectNewestShedsExactOverflowAndCapHolds) {
  auto service = MarketplaceService::Create(
      BaseOptions(ShedPolicy::kRejectNewest, 4));
  ASSERT_TRUE(service.ok());

  // Burst: a create plus 10 ticks against a queue of 4. Exactly the first
  // four submissions fit; the remaining seven shed with reason "overload".
  EXPECT_EQ(service.value()->Submit(CreateEvent("alpha", 7)),
            Admission::kAccepted);
  int accepted = 0;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    if (service.value()->Submit(Tick("alpha")) == Admission::kAccepted) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(shed, 7);

  auto stats = service.value()->GetStats();
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.shed.at("overload"), 7u);
  EXPECT_EQ(stats.total_shed, 7u);
  ASSERT_EQ(stats.shards.size(), 1u);
  // The hard invariant: the bounded queue never held more than its cap.
  EXPECT_LE(stats.shards[0].queue_high_water, 4u);

  // Only the admitted events execute: 3 ticks → 3 rounds, not 10.
  service.value()->Start();
  service.value()->Drain();
  stats = service.value()->GetStats();
  EXPECT_EQ(stats.events_processed, 4u);
  EXPECT_EQ(stats.rounds_settled, 3u);
}

TEST_F(AdmissionTest, CoalesceTicksDefersRoundsInsteadOfDroppingThem) {
  auto service = MarketplaceService::Create(
      BaseOptions(ShedPolicy::kCoalesceTicks, 4));
  ASSERT_TRUE(service.ok());

  EXPECT_EQ(service.value()->Submit(CreateEvent("alpha", 7)),
            Admission::kAccepted);
  int accepted = 0;
  int coalesced = 0;
  for (int i = 0; i < 10; ++i) {
    switch (service.value()->Submit(Tick("alpha"))) {
      case Admission::kAccepted: ++accepted; break;
      case Admission::kCoalesced: ++coalesced; break;
      case Admission::kShed: FAIL() << "tick was dropped"; break;
    }
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(coalesced, 7);
  EXPECT_EQ(service.value()->coalescer().pending(), 7);

  auto stats = service.value()->GetStats();
  EXPECT_EQ(stats.coalesced_rounds, 7u);
  EXPECT_EQ(stats.total_shed, 0u);

  // Deferred-and-merged, never lost: all 10 rounds settle even though
  // only 3 tick events made it into the queue.
  service.value()->Start();
  service.value()->Drain();
  stats = service.value()->GetStats();
  EXPECT_EQ(stats.rounds_settled, 10u);
  EXPECT_EQ(service.value()->coalescer().pending(), 0);
}

TEST_F(AdmissionTest, BlockPolicyWaitsThenShedsOnTimeout) {
  auto service =
      MarketplaceService::Create(BaseOptions(ShedPolicy::kBlock, 1));
  ASSERT_TRUE(service.ok());

  EXPECT_EQ(service.value()->Submit(CreateEvent("alpha", 7)),
            Admission::kAccepted);
  // No worker is draining (autostart off): the blocking push waits its
  // 100 ms budget, then sheds with reason "timeout".
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(service.value()->Submit(Tick("alpha")), Admission::kShed);
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_GE(waited, std::chrono::milliseconds(99));
  EXPECT_EQ(service.value()->GetStats().shed.at("timeout"), 1u);

  // With workers draining, the same push succeeds instead of timing out.
  service.value()->Start();
  auto generous = std::chrono::steady_clock::now() +
                  std::chrono::seconds(10);
  Admission admission = Admission::kShed;
  while (std::chrono::steady_clock::now() < generous) {
    admission = service.value()->Submit(Tick("alpha"));
    if (admission == Admission::kAccepted) break;
  }
  EXPECT_EQ(admission, Admission::kAccepted);
  service.value()->Drain();
}

TEST_F(AdmissionTest, CapacityGateBoundsConcurrentMarketplaces) {
  auto options = BaseOptions(ShedPolicy::kRejectNewest, 16);
  options.max_marketplaces = 2;
  auto service = MarketplaceService::Create(options);
  ASSERT_TRUE(service.ok());

  EXPECT_EQ(service.value()->Submit(CreateEvent("alpha", 1)),
            Admission::kAccepted);
  EXPECT_EQ(service.value()->Submit(CreateEvent("beta", 2)),
            Admission::kAccepted);
  EXPECT_EQ(service.value()->Submit(CreateEvent("gamma", 3)),
            Admission::kShed);
  EXPECT_EQ(service.value()->GetStats().shed.at("capacity"), 1u);

  // A close frees a slot at admission time: the next create is admitted.
  EXPECT_EQ(service.value()->Submit(CloseEvent("alpha")),
            Admission::kAccepted);
  EXPECT_EQ(service.value()->Submit(CreateEvent("gamma", 3)),
            Admission::kAccepted);

  service.value()->Start();
  service.value()->Drain();
}

TEST_F(AdmissionTest, BudgetStoppedMarketplaceShedsRoundTrafficAtAdmission) {
  auto options = BaseOptions(ShedPolicy::kRejectNewest, 16);
  auto service = MarketplaceService::Create(options);
  ASSERT_TRUE(service.ok());

  // A consumer budget so small the first settled round exhausts it.
  Event create = CreateEvent("alpha", 7);
  auto spec = std::make_shared<MarketplaceSpec>(*create.spec);
  spec->config.consumer_budget = 1e-9;
  create.spec = spec;

  EXPECT_EQ(service.value()->Submit(create), Admission::kAccepted);
  EXPECT_EQ(service.value()->Submit(Demand("alpha", 50)),
            Admission::kAccepted);
  service.value()->Start();

  // Wait for the worker to publish the budget stop.
  HostedMarketplace::State state = HostedMarketplace::State::kActive;
  for (int i = 0; i < 5000; ++i) {
    if (service.value()->directory().Lookup("alpha", &state) &&
        state == HostedMarketplace::State::kBudgetStopped) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(state, HostedMarketplace::State::kBudgetStopped);

  // Budget-aware backpressure: round traffic sheds at admission with
  // reason "budget" and never occupies a queue slot...
  EXPECT_EQ(service.value()->Submit(Tick("alpha")), Admission::kShed);
  EXPECT_EQ(service.value()->Submit(Demand("alpha", 5)), Admission::kShed);
  EXPECT_EQ(service.value()->GetStats().shed.at("budget"), 2u);

  // ...but a close still flows, so the WAL gets sealed.
  EXPECT_EQ(service.value()->Submit(CloseEvent("alpha")),
            Admission::kAccepted);
  service.value()->Drain();

  const auto stats = service.value()->GetStats();
  EXPECT_LT(stats.rounds_settled, 50u);
}

TEST_F(AdmissionTest, SubmitAfterDrainIsShedAsClosed) {
  auto service = MarketplaceService::Create(
      BaseOptions(ShedPolicy::kRejectNewest, 4));
  ASSERT_TRUE(service.ok());
  service.value()->Start();
  service.value()->Drain();
  EXPECT_EQ(service.value()->Submit(CreateEvent("alpha", 7)),
            Admission::kShed);
  EXPECT_EQ(service.value()->GetStats().shed.at("closed"), 1u);
}

}  // namespace
}  // namespace runtime
}  // namespace cdt
