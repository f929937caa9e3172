// ClusterRouter unit and property tests: the dispatch decision is a pure,
// deterministic argmin over tracked state, so every invariant here is checked
// without an engine — breaker eligibility, cost-model arithmetic, pending
// accounting, EWMA adaptation, and a 1000-seed randomized state sweep.
#include <gtest/gtest.h>

#include <random>

#include "nodetr/serve/router.hpp"

namespace serve = nodetr::serve;
using serve::ClusterRouter;
using Seed = ClusterRouter::DeviceSeed;
using Clock = ClusterRouter::Clock;

namespace {

ClusterRouter make_router(std::size_t n) {
  std::vector<Seed> seeds;
  for (std::size_t i = 0; i < n; ++i) {
    seeds.push_back(Seed{"dev" + std::to_string(i), 1.0});
  }
  return ClusterRouter(std::move(seeds));
}

}  // namespace

TEST(Router, ConstructorValidatesConfig) {
  // An empty fleet is the one invalid input.
  EXPECT_THROW(ClusterRouter(std::vector<Seed>{}), std::invalid_argument);
}

TEST(Router, TieBreaksToLowestIndexDeterministically) {
  auto router = make_router(4);
  const auto now = Clock::now();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.pick(2, now), 0u);  // identical state -> identical pick
  }
}

TEST(Router, CostModelMatchesDocumentedFormula) {
  ASSERT_EQ(ClusterRouter::kQueuePenaltyUs, 25.0);
  ClusterRouter router({Seed{"a", 3.0}, Seed{"b", 5.0}});
  router.on_dispatch(0, 4);  // a: 4 pending rows, 1 pending request
  // cost(a, 2) = 3.0 * (4 + 2) + 25.0 * 1 = 43; cost(b, 2) = 5.0 * 2 = 10.
  EXPECT_DOUBLE_EQ(router.cost_us(0, 2), 43.0);
  EXPECT_DOUBLE_EQ(router.cost_us(1, 2), 10.0);
  EXPECT_EQ(router.pick(2), 1u);
}

TEST(Router, PicksLeastLoadedAsDispatchesAccumulate) {
  auto router = make_router(3);
  // Round-robin emerges from the cost model itself when devices are equal.
  const auto now = Clock::now();
  const std::size_t first = router.pick(1, now);
  router.on_dispatch(first, 1);
  const std::size_t second = router.pick(1, now);
  router.on_dispatch(second, 1);
  const std::size_t third = router.pick(1, now);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(third, 2u);
}

TEST(Router, ResolvedReleasesPendingLoad) {
  auto router = make_router(2);
  router.on_dispatch(0, 8);
  EXPECT_EQ(router.pending_rows(0), 8);
  EXPECT_EQ(router.pending_requests(0), 1);
  EXPECT_EQ(router.pending_requests_total(), 1);
  router.on_resolved(0, 8);
  EXPECT_EQ(router.pending_rows(0), 0);
  EXPECT_EQ(router.pending_requests(0), 0);
  EXPECT_EQ(router.pending_requests_total(), 0);
}

TEST(Router, NeverPicksOpenDeviceWhileAClosedOneExists) {
  auto router = make_router(2);
  const auto now = Clock::now();
  router.on_breaker_open(0, 1'000'000, now);  // 1 s cooldown
  EXPECT_TRUE(router.breaker_open(0));
  // dev0 would win every tie, but it is mid-cooldown.
  for (int i = 0; i < 20; ++i) {
    const std::size_t d = router.pick(1, now);
    EXPECT_EQ(d, 1u);
    router.on_dispatch(d, 1);
  }
}

TEST(Router, OpenDeviceBecomesRoutableAfterCooldownForProbe) {
  auto router = make_router(2);
  const auto now = Clock::now();
  router.on_breaker_open(0, 1'000, now);  // 1 ms cooldown
  EXPECT_EQ(router.pick(1, now), 1u);
  // Past the cooldown the open device is eligible again (half-open probe
  // traffic); with equal costs the tie-break returns it.
  EXPECT_EQ(router.pick(1, now + std::chrono::milliseconds(2)), 0u);
  router.on_breaker_close(0);
  EXPECT_FALSE(router.breaker_open(0));
  EXPECT_EQ(router.pick(1, now), 0u);
}

TEST(Router, AllOpenMidCooldownStillRoutesToCheapest) {
  ClusterRouter router({Seed{"a", 9.0}, Seed{"b", 2.0}});
  const auto now = Clock::now();
  router.on_breaker_open(0, 1'000'000, now);
  router.on_breaker_open(1, 1'000'000, now);
  EXPECT_EQ(router.pick(1, now), 1u);  // cheapest, despite being open
}

TEST(Router, LostDeviceIsNeverRoutedAgain) {
  auto router = make_router(2);
  router.on_device_lost(0);
  EXPECT_TRUE(router.lost(0));
  const auto now = Clock::now();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.pick(1, now), 1u);
    router.on_dispatch(1, 1);
  }
  // Even once the survivor's breaker opens, a lost device stays out.
  router.on_breaker_open(1, 1'000'000, now);
  EXPECT_EQ(router.pick(1, now), 1u);
}

TEST(Router, ObserveFoldsEwma) {
  ASSERT_EQ(ClusterRouter::kEwmaAlpha, 0.3);
  ClusterRouter router({Seed{"a", 1.0}});
  router.observe(0, 3.0);
  EXPECT_DOUBLE_EQ(router.us_per_row(0), 1.6);  // 1 + 0.3 * (3 - 1)
  router.observe(0, 1.6);
  EXPECT_DOUBLE_EQ(router.us_per_row(0), 1.6);
  router.observe(0, 0.0);  // non-positive samples are ignored
  EXPECT_DOUBLE_EQ(router.us_per_row(0), 1.6);
}

TEST(Router, RebalancesWithinFewBatchesAfterTenfoldSlowdown) {
  auto router = make_router(2);
  const auto now = Clock::now();
  ASSERT_EQ(router.pick(4, now), 0u);  // healthy tie -> dev0
  // dev0 starts delivering 10x its seeded cost (simulated throttling). The
  // EWMA must make it the expensive choice within a handful of batches.
  int batches_until_rebalance = 0;
  for (; batches_until_rebalance < 10; ++batches_until_rebalance) {
    if (router.pick(4, now) != 0u) break;
    router.observe(0, 10.0);
  }
  EXPECT_LE(batches_until_rebalance, 3);
  EXPECT_EQ(router.pick(4, now), 1u);
  EXPECT_GT(router.us_per_row(0), router.us_per_row(1));
}

// 1000-seed property sweep: random fleet sizes, costs, loads, breaker and
// lost states. Invariants:
//   (1) pick() is deterministic (same state, same now -> same device);
//   (2) a lost device is never picked while any live device exists;
//   (3) an open device mid-cooldown is never picked while an eligible
//       (closed, or cooldown-elapsed) live device exists;
//   (4) among eligible devices the pick is the cost argmin, lowest index.
TEST(RouterProperty, RandomizedStateSweepHoldsInvariants) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + rng() % 8;
    std::vector<Seed> seeds;
    for (std::size_t i = 0; i < n; ++i) {
      seeds.push_back(Seed{"dev" + std::to_string(i),
                           1.0 + static_cast<double>(rng() % 1000) / 100.0});
    }
    ClusterRouter router(std::move(seeds));
    const auto now = Clock::now();
    std::vector<bool> lost(n, false), open_waiting(n, false), eligible(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t d = rng() % 4; d > 0; --d) {
        router.on_dispatch(i, 1 + static_cast<nodetr::tensor::index_t>(rng() % 8));
      }
      const std::uint64_t state = rng() % 4;
      if (state == 1) {
        router.on_breaker_open(i, 10'000'000, now);  // cooldown still running
        open_waiting[i] = true;
        eligible[i] = false;
      } else if (state == 2) {
        router.on_breaker_open(i, 0, now - std::chrono::seconds(1));  // elapsed
      } else if (state == 3) {
        router.on_device_lost(i);
        lost[i] = true;
        eligible[i] = false;
      }
    }
    const nodetr::tensor::index_t rows = 1 + static_cast<nodetr::tensor::index_t>(rng() % 8);
    const std::size_t picked = router.pick(rows, now);
    ASSERT_LT(picked, n) << "seed " << seed;
    EXPECT_EQ(picked, router.pick(rows, now)) << "seed " << seed;  // (1)

    bool any_live = false, any_eligible = false;
    for (std::size_t i = 0; i < n; ++i) {
      any_live = any_live || !lost[i];
      any_eligible = any_eligible || (eligible[i] && !lost[i]);
    }
    if (any_live) {
      EXPECT_FALSE(lost[picked]) << "seed " << seed;  // (2)
    }
    if (any_eligible) {
      EXPECT_FALSE(open_waiting[picked]) << "seed " << seed;  // (3)
      std::size_t best = ClusterRouter::kNone;
      double best_cost = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (lost[i] || open_waiting[i]) continue;
        const double c = router.cost_us(i, rows);
        if (best == ClusterRouter::kNone || c < best_cost) {
          best = i;
          best_cost = c;
        }
      }
      EXPECT_EQ(picked, best) << "seed " << seed;  // (4)
    }
  }
}
