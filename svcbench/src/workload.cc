#include "workload.h"

#include <algorithm>
#include <cmath>

#include "stats/rng.h"

namespace svcbench {

namespace {

// Why each workload exists is recorded in svcbench/README.md; the numbers
// below are the workload definitions, not tuning knobs.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec paper;
    paper.name = "paper_fleet";
    paper.markets = 64;
    paper.sellers = 300;
    paper.selected = 10;
    paper.pois = 10;
    paper.snapshot_every = 100;
    paper.setup_reps = 15;
    paper.batch_rounds = 100;
    paper.nominal_rounds_per_s = 40000.0;
    paper.rate = 200.0;
    paper.event_rounds = 50;
    paper.crash_tail = 50;
    paper.crash_cycles = 5;
    paper.engine_subset = 8;
    all.push_back(paper);

    WorkloadSpec large;
    large.name = "large_m";
    large.markets = 4;
    large.sellers = 100000;
    large.selected = 316;
    large.pois = 10;
    large.snapshot_every = 100;
    large.setup_reps = 3;
    large.batch_rounds = 25;
    large.nominal_rounds_per_s = 360.0;
    large.rate = 30.0;
    large.event_rounds = 1;
    large.crash_tail = 20;
    large.crash_cycles = 3;
    large.engine_subset = 1;
    all.push_back(large);

    WorkloadSpec crash;
    crash.name = "crash_recover";
    crash.markets = 128;
    crash.sellers = 300;
    crash.selected = 10;
    crash.pois = 10;
    crash.snapshot_every = 100;
    crash.compact_after_rounds = 400;
    crash.setup_reps = 15;
    crash.batch_rounds = 100;
    crash.nominal_rounds_per_s = 40000.0;
    crash.churn = true;
    crash.rate = 200.0;
    crash.event_rounds = 50;
    crash.crash_tail = 50;
    crash.crash_cycles = 5;
    crash.engine_subset = 8;
    all.push_back(crash);
    return all;
  }();
  return specs;
}

// Shares of --seconds given to the two measured load phases.
constexpr double kSaturationShare = 0.3;
constexpr double kOpenLoopShare = 0.5;
// Saturation batches and open-loop slices alternate this many times, so
// each metric samples the whole run, not one window of the host's load.
constexpr int kSegments = 5;

cdt::runtime::Event MakeEvent(cdt::runtime::EventType type,
                              const std::string& id) {
  cdt::runtime::Event event;
  event.type = type;
  event.marketplace = id;
  return event;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

int RouteShard(const std::string& id, int shards) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<int>(hash % static_cast<std::uint64_t>(shards));
}

std::int64_t RoundsOf(const cdt::runtime::Event& event) {
  switch (event.type) {
    case cdt::runtime::EventType::kRoundTick: return 1;
    case cdt::runtime::EventType::kConsumerDemand: return event.rounds;
    default: return 0;
  }
}

Plan MakePlan(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  using cdt::runtime::EventType;
  Plan plan;
  plan.spec = &spec;
  cdt::stats::Xoshiro256 rng(seed ^ 0x5bd1e9955bd1e995ULL);

  // Ids spread evenly over the shards so both workers carry the same load.
  std::vector<int> per_shard(kShards, 0);
  for (int k = 0; static_cast<int>(plan.markets.size()) < spec.markets; ++k) {
    Market market;
    market.id = spec.name + "-" + std::to_string(k);
    market.shard = RouteShard(market.id, kShards);
    if (per_shard[static_cast<std::size_t>(market.shard)] >=
        (spec.markets + kShards - 1) / kShards) {
      continue;
    }
    ++per_shard[static_cast<std::size_t>(market.shard)];
    auto mspec = std::make_shared<cdt::runtime::MarketplaceSpec>();
    mspec->config.num_sellers = spec.sellers;
    mspec->config.num_selected = spec.selected;
    mspec->config.num_pois = spec.pois;
    mspec->config.seed = rng.Next();
    market.spec = mspec;
    plan.markets.push_back(std::move(market));
  }

  std::uint64_t next_id = 1;
  auto offer = [&](std::vector<Offer>* out, int m, cdt::runtime::Event event,
                   std::int64_t due_offset_ns = 0) {
    Offer o;
    o.id = next_id++;
    o.market = m;
    o.event = std::move(event);
    o.due_offset_ns = due_offset_ns;
    out->push_back(std::move(o));
  };
  const int n = spec.markets;
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(n), 0);
  auto random_seller = [&]() {
    return static_cast<int>(rng.NextBounded(
        static_cast<std::uint64_t>(spec.sellers)));
  };

  for (int m = 0; m < n; ++m) {
    const Market& market = plan.markets[static_cast<std::size_t>(m)];
    cdt::runtime::Event create =
        MakeEvent(EventType::kCreateMarketplace, market.id);
    create.spec = market.spec;
    offer(&plan.setup, m, std::move(create));
    offer(&plan.setup, m, MakeEvent(EventType::kRoundTick, market.id));
    cursor[static_cast<std::size_t>(m)] = 1;
  }

  const double batch_work =
      static_cast<double>(n) * static_cast<double>(spec.batch_rounds);
  const int batches = std::max(
      kSegments, static_cast<int>(std::lround(
                     kSaturationShare * seconds * spec.nominal_rounds_per_s /
                     batch_work)));
  // Poisson arrivals at a fixed count, so the offered work is the same on
  // every seed. Targets are dealt from a reshuffled deck of marketplaces:
  // each draw is uniform, and every marketplace receives the same number
  // of events to within one, which keeps log lengths seed-independent.
  const auto events = static_cast<std::int64_t>(
      std::llround(spec.rate * kOpenLoopShare * seconds));
  std::vector<int> deck;
  plan.segments.resize(kSegments);
  for (int g = 0; g < kSegments; ++g) {
    Segment& segment = plan.segments[static_cast<std::size_t>(g)];
    for (int b = batches * g / kSegments; b < batches * (g + 1) / kSegments;
         ++b) {
      std::vector<Offer> batch;
      for (int m = 0; m < n; ++m) {
        const std::string& id = plan.markets[static_cast<std::size_t>(m)].id;
        const int seller = spec.churn ? random_seller() : -1;
        if (spec.churn) {
          cdt::runtime::Event leave = MakeEvent(EventType::kSellerLeave, id);
          leave.seller = seller;
          offer(&batch, m, std::move(leave));
        }
        cdt::runtime::Event demand =
            MakeEvent(EventType::kConsumerDemand, id);
        demand.rounds = spec.batch_rounds;
        offer(&batch, m, std::move(demand));
        if (spec.churn) {
          cdt::runtime::Event back = MakeEvent(EventType::kSellerReturn, id);
          back.seller = seller;
          offer(&batch, m, std::move(back));
        }
        cursor[static_cast<std::size_t>(m)] += spec.batch_rounds;
      }
      segment.batches.push_back(std::move(batch));
    }
    double offset_s = 0.0;
    for (std::int64_t e = events * g / kSegments;
         e < events * (g + 1) / kSegments; ++e) {
      if (deck.empty()) {
        for (int m = 0; m < n; ++m) deck.push_back(m);
        for (std::size_t i = deck.size(); i > 1; --i) {
          std::swap(deck[i - 1], deck[rng.NextBounded(i)]);
        }
      }
      const int m = deck.back();
      deck.pop_back();
      offset_s += -std::log1p(-rng.NextDouble()) / spec.rate;
      const std::string& id = plan.markets[static_cast<std::size_t>(m)].id;
      cdt::runtime::Event event =
          spec.event_rounds == 1
              ? MakeEvent(EventType::kRoundTick, id)
              : MakeEvent(EventType::kConsumerDemand, id);
      if (spec.event_rounds != 1) event.rounds = spec.event_rounds;
      offer(&segment.open_loop, m, std::move(event),
            static_cast<std::int64_t>(offset_s * 1e9));
      cursor[static_cast<std::size_t>(m)] += spec.event_rounds;
    }
  }
  // Crash cycles, back to back at the end so each recovers logs of nearly
  // the same length and their median is a median of like measurements.
  // Every marketplace is brought `crash_tail` rounds past a checkpoint (and
  // past a compaction base when compaction is on).
  const std::int64_t period = spec.compact_after_rounds > 0
                                  ? spec.compact_after_rounds
                                  : spec.snapshot_every;
  for (int c = 0; c < spec.crash_cycles; ++c) {
    CrashCycle cycle;
    const std::int64_t furthest =
        *std::max_element(cursor.begin(), cursor.end());
    cycle.crash_round = furthest / period * period + spec.crash_tail;
    if (cycle.crash_round <= furthest) cycle.crash_round += period;
    for (int m = 0; m < n; ++m) {
      const std::string& id = plan.markets[static_cast<std::size_t>(m)].id;
      if (spec.churn) {
        cdt::runtime::Event leave = MakeEvent(EventType::kSellerLeave, id);
        leave.seller = random_seller();
        offer(&cycle.topup, m, std::move(leave));
      }
      cdt::runtime::Event demand = MakeEvent(EventType::kConsumerDemand, id);
      demand.rounds = cycle.crash_round - cursor[static_cast<std::size_t>(m)];
      offer(&cycle.topup, m, std::move(demand));
    }
    for (int m = 0; m < n; ++m) {
      offer(&cycle.recovery_ticks, m,
            MakeEvent(EventType::kRoundTick,
                      plan.markets[static_cast<std::size_t>(m)].id));
      cursor[static_cast<std::size_t>(m)] = cycle.crash_round + 1;
    }
    plan.crashes.push_back(std::move(cycle));
  }
  return plan;
}

}  // namespace svcbench
