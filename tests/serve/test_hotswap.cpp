// Live model updates: versioned weight hot-swap with canary validation,
// auto-rollback, and the swap-under-storm differential suite.
//
// The load-bearing invariants:
//   - zero dropped/failed futures across ANY number of hot-swaps, with or
//     without a device fault storm underneath;
//   - every response is bitwise attributable to exactly one published
//     version — never a mix within a batch — because canary routing only
//     considers whole-request batches and sessions re-stage at batch
//     boundaries (RCU-style, no drain);
//   - a bad candidate auto-rolls-back and the baseline keeps serving
//     bitwise-identically;
//   - the commit point itself is faultable and rolls back atomically.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "nodetr/fault/fault.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/train/checkpoint.hpp"

namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;
namespace fault = nodetr::fault;
namespace train = nodetr::train;
using nt::index_t;

namespace {

/// Small MHSA design point, two distinct weight versions (B = A shifted by a
/// constant — structurally valid, numerically distinguishable), and bitwise
/// float references for both.
struct HotSwapFixture : ::testing::Test {
  nt::Rng rng{1234};
  nn::MhsaConfig cfg;
  std::unique_ptr<nn::MultiHeadSelfAttention> mhsa;
  hls::MhsaDesignPoint point;
  hls::MhsaWeights weights_a;
  hls::MhsaWeights weights_b;

  void SetUp() override {
    fault::Injector::instance().reset();
    fault::Injector::instance().seed(0x5eedf417u);
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.height = 4;
    cfg.width = 4;
    mhsa = std::make_unique<nn::MultiHeadSelfAttention>(cfg, rng);
    mhsa->train(false);
    point.dim = cfg.dim;
    point.height = cfg.height;
    point.width = cfg.width;
    point.heads = cfg.heads;
    point.scheme = fx::scheme_32_24();
    weights_a = hls::MhsaWeights::from_module(*mhsa);
    weights_b = perturbed(weights_a, 0.05f);
  }

  void TearDown() override { fault::Injector::instance().reset(); }

  static hls::MhsaWeights perturbed(const hls::MhsaWeights& w, float delta) {
    hls::MhsaWeights out = w;
    auto shift = [delta](nt::Tensor& t) {
      float* p = t.data();
      for (index_t i = 0; i < t.numel(); ++i) p[i] += delta;
    };
    shift(out.wq);
    shift(out.wk);
    shift(out.wv);
    if (out.rel_h.numel() > 0) shift(out.rel_h);
    if (out.rel_w.numel() > 0) shift(out.rel_w);
    return out;  // LayerNorm params untouched — still a valid candidate
  }

  [[nodiscard]] nt::Tensor reference(const hls::MhsaWeights& w, const nt::Tensor& x) const {
    hls::MhsaDesignPoint p = point;
    p.dtype = hls::DataType::kFloat32;
    hls::MhsaIpCore ip(p, w);
    return ip.run(x);
  }

  [[nodiscard]] serve::EngineConfig config(serve::Backend backend, std::size_t workers) const {
    serve::EngineConfig c;
    c.point = point;
    c.backend = backend;
    c.workers = workers;
    c.queue_capacity = 128;
    c.batcher.max_wait_us = 100;  // keep single-request batches snappy
    c.fault.backoff_us = 10;
    c.fault.max_backoff_us = 100;
    c.fault.max_retries = 8;
    // Swap-suite defaults: every whole-request batch canaries, one clean
    // shadow-scored batch promotes, and the quality/SLO triggers are off so
    // individual tests opt into exactly the trigger they exercise.
    c.hot_swap.canary_fraction = 1.0;
    c.hot_swap.min_canary_batches = 1;
    c.hot_swap.max_divergence = 0.0;  // divergence gate off unless a test arms it
    c.hot_swap.rollback_fault_burst = 0;
    c.hot_swap.rollback_slo_breaches = 0;
    c.hot_swap.swap_timeout_us = 60'000'000;
    return c;
  }

  /// Drive single-row requests until the in-flight swap concludes (commit or
  /// rollback) or `budget` elapses. Collected futures are the caller's to
  /// check; returns false on budget exhaustion.
  static bool drive_until_swap_concludes(
      serve::InferenceEngine& engine, const nt::Tensor& x,
      std::vector<std::pair<nt::Tensor, std::future<nt::Tensor>>>& out,
      std::chrono::milliseconds budget = std::chrono::milliseconds(10'000)) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (engine.swap_stats().canary_in_flight) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      out.emplace_back(x, engine.submit(x));
      out.back().second.wait();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }
};

}  // namespace

TEST_F(HotSwapFixture, RegistryLifecycleAndValidation) {
  serve::ModelRegistry registry(point, weights_a);
  EXPECT_EQ(registry.active(), 1u);
  EXPECT_EQ(registry.state(1), serve::VersionState::kActive);

  const auto id = registry.publish(weights_b, "candidate B");
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(registry.state(id), serve::VersionState::kCandidate);
  EXPECT_EQ(registry.active(), 1u);  // publish never touches live traffic

  registry.activate(id);
  EXPECT_EQ(registry.active(), 2u);
  EXPECT_EQ(registry.state(1), serve::VersionState::kRetired);
  EXPECT_THROW(registry.activate(2), std::invalid_argument);  // already active
  EXPECT_THROW(registry.reject(1), std::invalid_argument);    // not a candidate
  EXPECT_THROW((void)registry.get(99), std::invalid_argument);

  // Structural validation names the offending tensor.
  hls::MhsaWeights bad = weights_a;
  bad.wq = nt::Tensor(nt::Shape{4, 4});
  try {
    (void)registry.publish(bad);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'wq'"), std::string::npos) << e.what();
  }
  hls::MhsaWeights nan_w = weights_a;
  nan_w.wv.data()[3] = std::numeric_limits<float>::quiet_NaN();
  try {
    (void)registry.publish(nan_w);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("'wv'"), std::string::npos) << e.what();
  }
  // Rejected versions are terminal: no resurrection without a republish.
  const auto id3 = registry.publish(weights_b);
  registry.reject(id3);
  EXPECT_THROW(registry.activate(id3), std::invalid_argument);
}

TEST_F(HotSwapFixture, RegistryPublishCheckpointValidatesStructure) {
  serve::ModelRegistry registry(point, weights_a);
  const std::string good = ::testing::TempDir() + "/hotswap_good_ckpt.bin";
  train::save_checkpoint(good, *mhsa);
  const auto id = registry.publish_checkpoint(good);
  EXPECT_EQ(registry.state(id), serve::VersionState::kCandidate);
  // The checkpoint round-trips bitwise: same module, same weights.
  const auto x = rng.rand(nt::Shape{2, cfg.dim, cfg.height, cfg.width});
  EXPECT_TRUE(nt::allclose(reference(registry.get(id)->weights, x),
                           reference(weights_a, x), 0.0f, 0.0f));

  // A structurally wrong checkpoint (different dim) is rejected by the
  // stage-validate-commit loader with the offending param named; nothing is
  // published.
  nn::MhsaConfig other_cfg = cfg;
  other_cfg.dim = 32;
  other_cfg.heads = 4;
  nn::MultiHeadSelfAttention other(other_cfg, rng);
  other.train(false);
  const std::string mismatched = ::testing::TempDir() + "/hotswap_mismatch_ckpt.bin";
  train::save_checkpoint(mismatched, other);
  const auto before = registry.size();
  try {
    (void)registry.publish_checkpoint(mismatched);
    FAIL() << "expected CheckpointError";
  } catch (const train::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("shape mismatch for wq"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(registry.size(), before);
  std::remove(good.c_str());
  std::remove(mismatched.c_str());
}

TEST_F(HotSwapFixture, HotSwapCommitsAndServesNewVersionBitwise) {
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat, 1), weights_a);
  const auto x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});
  const auto ref_a = reference(weights_a, x);
  const auto ref_b = reference(weights_b, x);

  // Pre-swap traffic serves version 1 bitwise.
  EXPECT_TRUE(nt::allclose(engine.submit(x).get(), ref_a, 0.0f, 0.0f));
  EXPECT_EQ(engine.active_version(), 1u);

  const auto id = engine.registry().publish(weights_b, "B");
  engine.begin_swap(id);
  std::vector<std::pair<nt::Tensor, std::future<nt::Tensor>>> traffic;
  ASSERT_TRUE(drive_until_swap_concludes(engine, x, traffic));

  const auto swap = engine.swap_stats();
  EXPECT_EQ(swap.swaps_committed, 1u);
  EXPECT_EQ(swap.swaps_rolled_back, 0u);
  EXPECT_EQ(engine.active_version(), id);
  EXPECT_EQ(engine.registry().state(1), serve::VersionState::kRetired);
  EXPECT_GE(swap.canary_batches, 1u);
  EXPECT_GE(swap.shadow_samples, 1u);
  EXPECT_GT(swap.divergence_mean, 0.0);  // A and B genuinely differ

  // Every canary-phase response was bitwise one version or the other.
  for (auto& [input, f] : traffic) {
    const auto y = f.get();
    EXPECT_TRUE(nt::allclose(y, ref_a, 0.0f, 0.0f) || nt::allclose(y, ref_b, 0.0f, 0.0f));
  }
  // Post-commit traffic serves version 2 bitwise.
  EXPECT_TRUE(nt::allclose(engine.submit(x).get(), ref_b, 0.0f, 0.0f));
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(HotSwapFixture, BadCandidateAutoRollsBackAndRestoresBaseline) {
  auto cfg_e = config(serve::Backend::kCpuFloat, 1);
  cfg_e.hot_swap.max_divergence = 1e-4;    // tight quality gate
  cfg_e.hot_swap.min_canary_batches = 4;   // divergence trips before promotion
  serve::InferenceEngine engine(cfg_e, weights_a);
  const auto x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});
  const auto ref_a = reference(weights_a, x);

  // A wildly off candidate: every output diverges far beyond the gate.
  const auto id = engine.registry().publish(perturbed(weights_a, 2.0f), "bad");
  engine.begin_swap(id);
  std::vector<std::pair<nt::Tensor, std::future<nt::Tensor>>> traffic;
  ASSERT_TRUE(drive_until_swap_concludes(engine, x, traffic));

  const auto swap = engine.swap_stats();
  EXPECT_EQ(swap.swaps_rolled_back, 1u);
  EXPECT_EQ(swap.rollbacks_divergence, 1u);
  EXPECT_EQ(swap.swaps_committed, 0u);
  EXPECT_EQ(engine.active_version(), 1u);
  EXPECT_EQ(engine.registry().state(id), serve::VersionState::kRejected);
  // The rejected candidate cannot be swapped in again.
  EXPECT_THROW(engine.begin_swap(id), std::invalid_argument);
  // Baseline restored: post-rollback traffic is bitwise version 1.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(nt::allclose(engine.submit(x).get(), ref_a, 0.0f, 0.0f));
  }
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(HotSwapFixture, CommitFaultRollsBackAtomicallyThenRetrySucceeds) {
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat, 1), weights_a);
  const auto x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});
  const auto ref_a = reference(weights_a, x);
  const auto ref_b = reference(weights_b, x);

  fault::Injector::instance().arm("serve.swap.commit", fault::Schedule::once());
  const auto id = engine.registry().publish(weights_b);
  engine.begin_swap(id);
  std::vector<std::pair<nt::Tensor, std::future<nt::Tensor>>> traffic;
  ASSERT_TRUE(drive_until_swap_concludes(engine, x, traffic));

  auto swap = engine.swap_stats();
  EXPECT_EQ(swap.swaps_committed, 0u);
  EXPECT_EQ(swap.rollbacks_commit_fault, 1u);
  EXPECT_EQ(engine.active_version(), 1u);  // no half-commit
  EXPECT_TRUE(nt::allclose(engine.submit(x).get(), ref_a, 0.0f, 0.0f));

  // The site fired once; a republished candidate commits cleanly.
  const auto id2 = engine.registry().publish(weights_b);
  engine.begin_swap(id2);
  ASSERT_TRUE(drive_until_swap_concludes(engine, x, traffic));
  swap = engine.swap_stats();
  EXPECT_EQ(swap.swaps_committed, 1u);
  EXPECT_EQ(engine.active_version(), id2);
  EXPECT_TRUE(nt::allclose(engine.submit(x).get(), ref_b, 0.0f, 0.0f));
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(HotSwapFixture, SwapTimesOutWhenStagingKeepsFailing) {
  auto cfg_e = config(serve::Backend::kCpuFloat, 1);
  cfg_e.hot_swap.swap_timeout_us = 150'000;
  serve::InferenceEngine engine(cfg_e, weights_a);
  const auto x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});
  const auto ref_a = reference(weights_a, x);

  // Staging fails at every batch boundary: the canary replicas can never be
  // built, so no canary batch ever runs and the timeout concludes the swap.
  fault::Injector::instance().arm("serve.swap.stage", fault::Schedule::always());
  const auto id = engine.registry().publish(weights_b);
  engine.begin_swap(id);
  std::vector<std::pair<nt::Tensor, std::future<nt::Tensor>>> traffic;
  ASSERT_TRUE(drive_until_swap_concludes(engine, x, traffic));

  const auto swap = engine.swap_stats();
  EXPECT_EQ(swap.swaps_committed, 0u);
  EXPECT_EQ(swap.rollbacks_timeout, 1u);
  EXPECT_GE(swap.stage_failures, 1u);
  EXPECT_EQ(swap.canary_batches, 0u);
  EXPECT_EQ(engine.active_version(), 1u);
  // Traffic kept flowing on the coherently staged old version throughout.
  for (auto& [input, f] : traffic) {
    EXPECT_TRUE(nt::allclose(f.get(), ref_a, 0.0f, 0.0f));
  }
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(HotSwapFixture, ProbeRaceServesCoherentVersion) {
  // Satellite: a circuit-breaker half-open probe racing a version swap on the
  // same board. The demoted session's CPU fallback, the probe's re-driven
  // accelerator, and the canary replica must all serve a coherent version —
  // every output bitwise version A or version B, never a hybrid.
  auto cfg_e = config(serve::Backend::kFpgaFloat, 1);
  cfg_e.breaker.open_after = 2;
  cfg_e.breaker.cooldown_us = 2'000;  // probe fires quickly, mid-swap
  serve::InferenceEngine engine(cfg_e, weights_a);
  const auto x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});
  const auto ref_a = reference(weights_a, x);
  const auto ref_b = reference(weights_b, x);

  // Storm the device (AXI NACKs — device-side only, so the CPU fallback
  // keeps serving) until the breaker opens and the session demotes.
  fault::Injector::instance().arm("rt.axi.nack", fault::Schedule::always());
  while (engine.stats().breaker_opens == 0) {
    (void)engine.submit(x).get();  // served by the CPU fallback after demotion
  }
  fault::Injector::instance().disarm("rt.axi.nack");

  // Swap begins while the breaker cooldown is pending: the half-open probe
  // races canary staging and the commit on this board.
  const auto id = engine.registry().publish(weights_b);
  engine.begin_swap(id);
  std::vector<std::pair<nt::Tensor, std::future<nt::Tensor>>> traffic;
  ASSERT_TRUE(drive_until_swap_concludes(engine, x, traffic));
  // Keep driving until the probe has re-driven the device and closed the
  // breaker, so the post-swap accelerator path is exercised too.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.stats().breaker_closes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    traffic.emplace_back(x, engine.submit(x));
    traffic.back().second.wait();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  EXPECT_EQ(engine.swap_stats().swaps_committed, 1u);
  EXPECT_GE(engine.stats().breaker_probes, 1u);
  EXPECT_GE(engine.stats().breaker_closes, 1u);
  EXPECT_EQ(engine.stats().failed, 0u);
  for (auto& [input, f] : traffic) {
    const auto y = f.get();
    EXPECT_TRUE(nt::allclose(y, ref_a, 0.0f, 0.0f) || nt::allclose(y, ref_b, 0.0f, 0.0f))
        << "response is neither version A nor version B bitwise";
  }
  // Post-storm, post-swap: the device path serves the promoted version.
  EXPECT_TRUE(nt::allclose(engine.submit(x).get(), ref_b, 0.0f, 0.0f));
}

TEST_F(HotSwapFixture, ThousandSwapsUnderStormNoDroppedFuturesAllAttributable) {
  // The acceptance soak in miniature process: 1000 hot-swaps under a
  // deterministic device fault storm. Zero dropped or failed futures; every
  // response bitwise attributable to version A or version B.
  int swaps = 1000;
  if (const char* env = std::getenv("NODETR_SWAP_COUNT")) {
    swaps = std::max(1, std::atoi(env));
  }
  auto cfg_e = config(serve::Backend::kFpgaFloat, 2);
  cfg_e.breaker.open_after = 2;
  cfg_e.breaker.cooldown_us = 1'000;
  serve::InferenceEngine engine(cfg_e, weights_a);
  const auto x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});
  const auto ref_a = reference(weights_a, x);
  const auto ref_b = reference(weights_b, x);

  fault::Injector::instance().arm("rt.axi.nack", fault::Schedule::with_probability(0.05));
  fault::Injector::instance().arm("hls.ip.stall", fault::Schedule::with_probability(0.02));

  std::uint64_t responses = 0;
  for (int i = 0; i < swaps; ++i) {
    const auto id =
        engine.registry().publish(i % 2 == 0 ? weights_b : weights_a, "swap " + std::to_string(i));
    engine.begin_swap(id);
    std::vector<std::pair<nt::Tensor, std::future<nt::Tensor>>> traffic;
    ASSERT_TRUE(drive_until_swap_concludes(engine, x, traffic)) << "swap " << i << " stuck";
    for (auto& [input, f] : traffic) {
      const auto y = f.get();  // throws -> dropped/failed future -> test fails
      ++responses;
      ASSERT_TRUE(nt::allclose(y, ref_a, 0.0f, 0.0f) || nt::allclose(y, ref_b, 0.0f, 0.0f))
          << "swap " << i << ": response is a version hybrid";
    }
  }
  fault::Injector::instance().reset();

  const auto swap = engine.swap_stats();
  const auto stats = engine.stats();
  EXPECT_EQ(swap.swaps_begun, static_cast<std::uint64_t>(swaps));
  EXPECT_EQ(swap.swaps_committed + swap.swaps_rolled_back,
            static_cast<std::uint64_t>(swaps));  // every swap reached a terminal state
  EXPECT_EQ(swap.swaps_committed, static_cast<std::uint64_t>(swaps));
  EXPECT_EQ(stats.failed, 0u) << "futures failed under swap storm";
  EXPECT_GT(responses, 0u);
  // Convergence: the engine serves exactly the last committed version.
  const auto& final_ref = (swaps - 1) % 2 == 0 ? ref_b : ref_a;
  EXPECT_TRUE(nt::allclose(engine.submit(x).get(), final_ref, 0.0f, 0.0f));
  EXPECT_EQ(engine.active_version(), engine.registry().active());
}
