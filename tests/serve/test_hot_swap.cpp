// serve::SwapController on its own: no engine, no workers, no sleeping. The
// tests play the engine's part — they report canary batches, canary faults
// and batch-boundary ticks at chosen times — and check each rollback
// trigger, the promotion gate, the commit point and the RCU epoch.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "nodetr/fault/fault.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/hot_swap.hpp"

namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fault = nodetr::fault;
using Clock = serve::SwapController::Clock;
using std::chrono::microseconds;

namespace {

struct SwapControllerTest : ::testing::Test {
  hls::MhsaDesignPoint point;
  hls::MhsaWeights weights;
  std::unique_ptr<serve::ModelRegistry> registry;
  serve::SloConfig slo_cfg;
  std::unique_ptr<serve::SloMonitor> slo;
  serve::HotSwapConfig cfg;
  const Clock::time_point t0 = Clock::now();

  void SetUp() override {
    fault::Injector::instance().reset();
    nt::Rng rng{99};
    nn::MhsaConfig mc;
    mc.dim = 8;
    mc.heads = 2;
    mc.height = 2;
    mc.width = 2;
    nn::MultiHeadSelfAttention mhsa(mc, rng);
    point.dim = mc.dim;
    point.height = mc.height;
    point.width = mc.width;
    point.heads = mc.heads;
    weights = hls::MhsaWeights::from_module(mhsa);
    registry = std::make_unique<serve::ModelRegistry>(point, weights);
    // One-sample SLO window: each recorded failure is a breach, each
    // completion clears it.
    slo_cfg.window = 1;
    slo_cfg.goodput_target = 0.5;
    slo = std::make_unique<serve::SloMonitor>(slo_cfg);
    // Every trigger off; each test arms the one it checks.
    cfg.min_canary_batches = 1;
    cfg.max_divergence = 0.0;
    cfg.rollback_fault_burst = 0;
    cfg.rollback_slo_breaches = 0;
    cfg.swap_timeout_us = 0;
  }

  void TearDown() override { fault::Injector::instance().reset(); }

  [[nodiscard]] std::unique_ptr<serve::SwapController> controller() {
    return std::make_unique<serve::SwapController>(cfg, *registry, *slo);
  }

  /// Publish a candidate and start its canary at t0.
  std::uint64_t begin(serve::SwapController& swap) {
    const std::uint64_t id = registry->publish(weights);
    swap.begin(id, t0);
    return id;
  }

  /// The swap concluded with a rollback for `reason` alone, and the
  /// candidate is rejected while version 1 stays active.
  void expect_rolled_back(const serve::SwapController& swap, std::uint64_t id,
                          std::uint64_t serve::SwapStats::*reason) {
    const serve::SwapStats s = swap.stats();
    EXPECT_FALSE(s.canary_in_flight);
    EXPECT_FALSE(swap.in_flight());
    EXPECT_EQ(s.swaps_rolled_back, 1u);
    EXPECT_EQ(s.*reason, 1u);
    EXPECT_EQ(s.rollbacks_divergence + s.rollbacks_fault_burst + s.rollbacks_slo +
                  s.rollbacks_timeout + s.rollbacks_commit_fault + s.rollbacks_manual,
              1u);
    EXPECT_EQ(s.swaps_committed, 0u);
    EXPECT_EQ(s.active_version, 1u);
    EXPECT_EQ(swap.versions().candidate, nullptr);
    EXPECT_EQ(registry->active(), 1u);
    EXPECT_EQ(registry->state(id), serve::VersionState::kRejected);
  }
};

}  // namespace

TEST_F(SwapControllerTest, DivergenceBreachRollsBack) {
  cfg.max_divergence = 1e-3;
  cfg.min_canary_batches = 4;
  auto swap = controller();
  const auto id = begin(*swap);
  swap->on_canary_batch(id, 5e-4);
  swap->tick(t0);
  EXPECT_TRUE(swap->in_flight());  // mean 5e-4 is within the gate
  swap->on_canary_batch(id, 2e-3);
  EXPECT_DOUBLE_EQ(swap->stats().divergence_mean, 1.25e-3);
  EXPECT_DOUBLE_EQ(swap->stats().divergence_max, 2e-3);
  swap->tick(t0);
  expect_rolled_back(*swap, id, &serve::SwapStats::rollbacks_divergence);
}

TEST_F(SwapControllerTest, FaultBurstRollsBack) {
  cfg.rollback_fault_burst = 3;
  cfg.min_canary_batches = 100;
  auto swap = controller();
  swap->on_canary_fault();  // no canary yet: not counted
  const auto id = begin(*swap);
  swap->on_canary_fault();
  swap->on_canary_fault();
  swap->tick(t0);
  EXPECT_TRUE(swap->in_flight());
  swap->on_canary_fault();
  swap->tick(t0);
  expect_rolled_back(*swap, id, &serve::SwapStats::rollbacks_fault_burst);
}

TEST_F(SwapControllerTest, NewSloBreachesRollBack) {
  cfg.rollback_slo_breaches = 2;
  cfg.min_canary_batches = 100;
  auto swap = controller();
  // A breach before the canary is the baseline, not a new breach.
  slo->record(serve::SloMonitor::Outcome::kFailed);
  const auto id = begin(*swap);
  slo->record(serve::SloMonitor::Outcome::kCompleted);
  swap->tick(t0);
  slo->record(serve::SloMonitor::Outcome::kFailed);
  swap->tick(t0);  // one new breach
  EXPECT_TRUE(swap->in_flight());
  slo->record(serve::SloMonitor::Outcome::kCompleted);
  swap->tick(t0);
  slo->record(serve::SloMonitor::Outcome::kFailed);
  swap->tick(t0);  // two new breaches
  expect_rolled_back(*swap, id, &serve::SwapStats::rollbacks_slo);
}

TEST_F(SwapControllerTest, TimeoutIsMeasuredAgainstTheGivenNow) {
  cfg.swap_timeout_us = 1'000;
  auto swap = controller();
  const auto id = begin(*swap);
  swap->tick(t0 + microseconds(999));
  EXPECT_TRUE(swap->in_flight());
  swap->tick(t0 + microseconds(1'000));
  expect_rolled_back(*swap, id, &serve::SwapStats::rollbacks_timeout);
}

TEST_F(SwapControllerTest, CommitFaultLeavesTheActiveVersion) {
  fault::Injector::instance().arm("serve.swap.commit", fault::Schedule::once());
  auto swap = controller();
  const auto id = begin(*swap);
  swap->on_canary_batch(id, 0.0);
  swap->tick(t0);
  expect_rolled_back(*swap, id, &serve::SwapStats::rollbacks_commit_fault);
  EXPECT_EQ(swap->versions().active->id, 1u);
}

TEST_F(SwapControllerTest, CancelRollsBackManually) {
  auto swap = controller();
  EXPECT_FALSE(swap->cancel());  // nothing in flight
  const auto id = begin(*swap);
  EXPECT_TRUE(swap->cancel());
  expect_rolled_back(*swap, id, &serve::SwapStats::rollbacks_manual);
  EXPECT_FALSE(swap->cancel());
}

TEST_F(SwapControllerTest, PromotionWaitsForMinCanaryBatchesOfShadowSamples) {
  cfg.max_divergence = 1e-3;
  cfg.min_canary_batches = 3;
  auto swap = controller();
  const auto id = begin(*swap);
  // max_divergence > 0 gates on shadow samples: ticks alone never promote.
  for (int i = 0; i < 5; ++i) swap->tick(t0);
  EXPECT_TRUE(swap->in_flight());
  swap->on_canary_batch(id, 1e-4);
  swap->on_canary_batch(id, 1e-4);
  swap->tick(t0);
  EXPECT_TRUE(swap->in_flight());
  swap->on_canary_batch(id, 1e-4);
  swap->tick(t0);
  const serve::SwapStats s = swap->stats();
  EXPECT_FALSE(s.canary_in_flight);
  EXPECT_EQ(s.swaps_committed, 1u);
  EXPECT_EQ(s.swaps_rolled_back, 0u);
  EXPECT_EQ(s.active_version, id);
  EXPECT_EQ(s.canary_batches, 3u);
  EXPECT_EQ(s.shadow_samples, 3u);
  EXPECT_EQ(swap->versions().active->id, id);
  EXPECT_EQ(registry->active(), id);
  EXPECT_EQ(registry->state(1), serve::VersionState::kRetired);
}

TEST_F(SwapControllerTest, SampleForAConcludedCandidateIsDropped) {
  cfg.max_divergence = 1e-3;
  auto swap = controller();
  const auto first = begin(*swap);
  ASSERT_TRUE(swap->cancel());
  const auto second = begin(*swap);
  // A canary batch of the first candidate finishes after its phase ended:
  // it must neither promote the second nor roll it back.
  swap->on_canary_batch(first, 5.0);
  swap->tick(t0);
  serve::SwapStats s = swap->stats();
  EXPECT_TRUE(s.canary_in_flight);
  EXPECT_EQ(s.candidate_version, second);
  EXPECT_EQ(s.canary_batches, 1u);  // it ran
  EXPECT_EQ(s.shadow_samples, 0u);  // but fed no gate
  EXPECT_EQ(s.divergence_max, 0.0);
  swap->on_canary_batch(second, 1e-4);
  swap->tick(t0);
  s = swap->stats();
  EXPECT_EQ(s.swaps_committed, 1u);
  EXPECT_EQ(s.active_version, second);
}

TEST_F(SwapControllerTest, EpochBumpsOncePerBeginCommitAndRollback) {
  auto swap = controller();
  std::uint64_t epoch = swap->epoch();
  const auto a = begin(*swap);
  EXPECT_EQ(swap->epoch(), ++epoch);
  // Refused begins and idle ticks leave it alone.
  EXPECT_THROW(swap->begin(a, t0), std::invalid_argument);  // in flight
  swap->tick(t0);
  EXPECT_EQ(swap->epoch(), epoch);
  EXPECT_EQ(swap->versions().candidate->id, a);
  swap->on_canary_batch(a, 0.0);
  swap->tick(t0);  // commit
  EXPECT_EQ(swap->epoch(), ++epoch);
  EXPECT_EQ(swap->versions().active->id, a);
  EXPECT_THROW(swap->begin(a, t0), std::invalid_argument);   // already active
  EXPECT_THROW(swap->begin(99, t0), std::invalid_argument);  // unknown
  swap->tick(t0);
  EXPECT_EQ(swap->epoch(), epoch);
  const auto b = begin(*swap);
  EXPECT_EQ(swap->epoch(), ++epoch);
  ASSERT_TRUE(swap->cancel());
  EXPECT_EQ(swap->epoch(), ++epoch);
  EXPECT_THROW(swap->begin(b, t0), std::invalid_argument);  // rejected
  EXPECT_EQ(swap->epoch(), epoch);
  EXPECT_EQ(swap->stats().swaps_begun, 2u);
}

TEST_F(SwapControllerTest, RejectsAnOutOfRangeConfig) {
  cfg.canary_fraction = 0.0;
  EXPECT_THROW((void)controller(), std::invalid_argument);
  cfg.canary_fraction = 1.5;
  EXPECT_THROW((void)controller(), std::invalid_argument);
  cfg.canary_fraction = 1.0;
  cfg.min_canary_batches = 0;
  EXPECT_THROW((void)controller(), std::invalid_argument);
  cfg.min_canary_batches = 1;
  cfg.swap_timeout_us = -1;
  EXPECT_THROW((void)controller(), std::invalid_argument);
}
