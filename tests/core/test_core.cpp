#include "nodetr/core/lightweight_transformer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/tune.hpp"

namespace core = nodetr::core;
namespace nt = nodetr::tensor;
namespace d = nodetr::data;
namespace hls = nodetr::hls;

namespace {

core::Options tiny_options() {
  core::Options o;
  o.image_size = 32;
  o.classes = 10;
  o.solver_steps = 2;
  o.stem_channels = 16;
  o.mhsa_bottleneck = 16;
  o.mhsa_heads = 2;
  return o;
}

}  // namespace

TEST(Core, PaperScaleConstructionMatchesDesignPoint) {
  core::LightweightTransformer model;  // default: 96px, 64..256 channels
  // (64, 6, 6) — the proposed model's synthesized geometry.
  auto point = model.design_point(hls::DataType::kFixed);
  EXPECT_EQ(point.dim, 64);
  EXPECT_EQ(point.height, 6);
  EXPECT_EQ(point.heads, 4);
  // Table IV vicinity.
  EXPECT_NEAR(static_cast<double>(model.num_parameters()), 513275.0, 0.015 * 513275.0);
}

TEST(Core, PredictShapesAndDeterminism) {
  auto opts = tiny_options();
  core::LightweightTransformer model(opts);
  nt::Rng rng(1);
  auto batch = rng.rand(nt::Shape{2, 3, 32, 32});
  auto logits = model.predict_logits(batch);
  EXPECT_EQ(logits.shape(), (nt::Shape{2, 10}));
  EXPECT_TRUE(nt::allclose(model.predict_logits(batch), logits, 0.0f, 0.0f));
  auto img = rng.rand(nt::Shape{3, 32, 32});
  const auto cls = model.predict(img);
  EXPECT_GE(cls, 0);
  EXPECT_LT(cls, 10);
}

TEST(Core, TrainingImprovesOverChance) {
  d::SynthStl ds({.image_size = 32, .train_per_class = 6, .test_per_class = 3, .seed = 2,
                  .noise_stddev = 0.05f});
  core::LightweightTransformer model(tiny_options());
  nodetr::train::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 10;
  cfg.augment = false;
  cfg.sgd = {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.eta_max = 0.02f, .eta_min = 1e-3f, .t0 = 10, .t_mult = 2};
  auto hist = model.fit(ds.train(), ds.test(), cfg);
  EXPECT_EQ(hist.epochs.size(), 4u);
  EXPECT_LT(hist.epochs.back().train_loss, hist.epochs.front().train_loss);
}

TEST(Core, SaveLoadRoundTrip) {
  core::LightweightTransformer a(tiny_options());
  const std::string path = ::testing::TempDir() + "/nodetr_core_ckpt.bin";
  a.save(path);
  core::LightweightTransformer b(tiny_options());
  b.load(path);
  nt::Rng rng(3);
  auto batch = rng.rand(nt::Shape{1, 3, 32, 32});
  EXPECT_TRUE(nt::allclose(a.predict_logits(batch), b.predict_logits(batch), 1e-5f, 1e-6f));
}

TEST(Core, OffloadAgreesWithSoftware) {
  core::LightweightTransformer model(tiny_options());
  nt::Rng rng(4);
  auto batch = rng.rand(nt::Shape{1, 3, 32, 32});
  auto sw = model.predict_logits(batch);
  auto session = model.offload(hls::DataType::kFloat32);
  model.model().train(false);
  auto hw = session->forward(batch);
  EXPECT_TRUE(nt::allclose(hw, sw, 0.0f, 0.0f));
}

TEST(Core, ResourceAndPowerEstimates) {
  core::LightweightTransformer model;  // paper scale => calibrated (64,6,6) point
  auto fixed = model.estimate_resources(hls::DataType::kFixed);
  EXPECT_EQ(fixed.bram18, 433);  // Table VII proposed fixed
  auto flt = model.estimate_resources(hls::DataType::kFloat32);
  EXPECT_EQ(flt.dsp, 868);       // Table VII proposed float
  EXPECT_LT(model.estimate_ip_watts(hls::DataType::kFixed),
            model.estimate_ip_watts(hls::DataType::kFloat32));
}

TEST(Core, PredictRejectsBadRank) {
  core::LightweightTransformer model(tiny_options());
  EXPECT_THROW((void)model.predict(nt::Tensor(nt::Shape{1, 3, 32, 32})), std::invalid_argument);
}

namespace {

bool bitwise_equal(const nt::Tensor& a, const nt::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

}  // namespace

// predict_logits runs the paper model under an InferenceScope. The logits
// are bitwise those of an eval-mode forward outside any scope, at batch 1 and
// 8, and each batch-8 row is bitwise the batch-1 logits of its image.
TEST(Core, PaperModelLogitsBitwiseEqualWithAndWithoutInferenceScope) {
  core::LightweightTransformer model;
  nt::Rng rng(51);
  const auto batch = rng.rand(nt::Shape{8, 3, 96, 96});
  const auto logits8 = model.predict_logits(batch);
  model.model().train(false);
  EXPECT_TRUE(bitwise_equal(model.model().forward(batch), logits8));
  const auto k = logits8.dim(1);
  for (nt::index_t i = 0; i < 8; ++i) {
    const auto image = batch.slice0(i, i + 1);
    const auto logits1 = model.predict_logits(image);
    EXPECT_TRUE(bitwise_equal(model.model().forward(image), logits1)) << "image " << i;
    EXPECT_EQ(std::memcmp(logits1.data(), logits8.data() + i * k, sizeof(float) * k), 0)
        << "row " << i;
  }
}

// At batch 4 the error is thrown inside a pool task and rethrown on the
// caller.
TEST(Core, PredictLogitsRestoresTrainingModeWhenForwardThrows) {
  core::LightweightTransformer model(tiny_options());
  model.model().train(true);
  for (const nt::index_t b : {1, 4}) {
    EXPECT_THROW((void)model.predict_logits(nt::Tensor(nt::Shape{b, 4, 32, 32})),
                 std::invalid_argument)
        << "batch " << b;
    EXPECT_TRUE(model.model().training()) << "batch " << b;
    EXPECT_TRUE(model.model().recording()) << "batch " << b;
  }
}

// Above batch 1 each image runs whole in its own pool task. Row i is bitwise
// the batch-1 logits of image i; at batch 17 on a pool of up to four threads
// some tasks run more than one image.
TEST(Core, PredictLogitsRowsBitwiseEqualBatch1Logits) {
  core::LightweightTransformer model(tiny_options());
  nt::Rng rng(53);
  const auto batch = rng.rand(nt::Shape{17, 3, 32, 32});
  std::vector<nt::Tensor> single;
  for (nt::index_t i = 0; i < 17; ++i) single.push_back(model.predict_logits(batch.slice0(i, i + 1)));
  const auto k = single[0].numel();
  for (const nt::index_t b : {2, 3, 8, 17}) {
    const auto logits = model.predict_logits(batch.slice0(0, b));
    ASSERT_EQ(logits.shape(), (nt::Shape{b, k}));
    for (nt::index_t i = 0; i < b; ++i) {
      EXPECT_EQ(std::memcmp(single[static_cast<std::size_t>(i)].data(), logits.data() + i * k,
                            sizeof(float) * static_cast<std::size_t>(k)),
                0)
          << "batch " << b << " row " << i;
    }
  }
}

// One fork/join for the whole batch: every op inside an image task runs
// serially on that task's thread.
TEST(Core, BatchedPredictLogitsIsOnePoolRun) {
  core::LightweightTransformer model(tiny_options());
  nt::Rng rng(54);
  const auto batch = rng.rand(nt::Shape{8, 3, 32, 32});
  auto& runs = nodetr::obs::Registry::instance().counter("tensor.pool.runs");
  const std::int64_t before = runs.value();
  (void)model.predict_logits(batch);
  const std::int64_t want = nt::ThreadPool::global().size() > 1 ? 1 : 0;
  EXPECT_EQ(runs.value() - before, want);
}

// The fork count of one batch-1 paper-model image: every parallel_for that
// splits into two or more chunks counts once, in `runs` when it forks the
// pool and in `serial_runs` when it runs its chunks on the caller, so the sum
// does not depend on the pool size. It does depend on the GEMM blocking (a
// k split adds pack and tile loops), so it is pinned under one config: the
// ctest copy CoreForks.PaperModelBatch1.avx2_6x16 sets it
// (tests/CMakeLists.txt). A change that adds or removes a fork moves it.
TEST(CoreForks, PaperModelBatch1PredictLogits) {
  constexpr const char* kSpec = "avx2_6x16:384:256:1024";
  constexpr std::int64_t kForks = 88;
  const auto& cfg = nt::tune::gemm_config();
  if (nt::tune::to_spec(cfg) != kSpec) {
    GTEST_SKIP() << "the fork count is pinned under " << kSpec << ", not "
                 << nt::tune::to_spec(cfg);
  }
  core::LightweightTransformer model;
  nt::Rng rng(58);
  const auto image = rng.rand(nt::Shape{1, 3, 96, 96});
  (void)model.predict_logits(image);  // warm-up
  auto& reg = nodetr::obs::Registry::instance();
  auto& runs = reg.counter("tensor.pool.runs");
  auto& serial_runs = reg.counter("tensor.pool.serial_runs");
  const std::int64_t before = runs.value() + serial_runs.value();
  (void)model.predict_logits(image);
  EXPECT_EQ(runs.value() + serial_runs.value() - before, kForks);
}

// The image tasks leave the MHSA diagnostics alone: they still describe the
// last forward made outside the pool.
TEST(Core, BatchedPredictLogitsKeepsAttentionDiagnostics) {
  core::LightweightTransformer model(tiny_options());
  auto& mhsa = model.model().mhsa_block()->mhsa();
  const auto& cfg = mhsa.config();
  nt::Rng rng(55);
  (void)mhsa.forward(rng.randn(nt::Shape{2, cfg.dim, cfg.height, cfg.width}));
  const float sparsity = mhsa.last_attention_sparsity();
  const nt::Tensor weights = mhsa.attention_weights(1, cfg.heads - 1);
  (void)model.predict_logits(rng.rand(nt::Shape{8, 3, 32, 32}));
  EXPECT_EQ(mhsa.last_attention_sparsity(), sparsity);
  EXPECT_TRUE(bitwise_equal(mhsa.attention_weights(1, cfg.heads - 1), weights));
}

// Concurrent inference forwards leave no state behind that breaks training.
TEST(Core, TrainingStepWorksAfterBatchedPredictLogits) {
  core::LightweightTransformer model(tiny_options());
  nt::Rng rng(56);
  (void)model.predict_logits(rng.rand(nt::Shape{8, 3, 32, 32}));
  model.model().train(true);
  model.model().zero_grad();
  const auto y = model.model().forward(rng.rand(nt::Shape{2, 3, 32, 32}));
  (void)model.model().backward(nt::Tensor(y.shape(), 1.0f));
  float grad_norm = 0.0f;
  for (const auto* p : model.model().parameters()) {
    for (nt::index_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(p->grad[i])) << p->name;
      grad_norm += p->grad[i] * p->grad[i];
    }
  }
  EXPECT_GT(grad_norm, 0.0f);
}

// An offload hook need not be safe to call from two threads, so with one
// installed a batch runs layer by layer: the logits are the session's.
TEST(Core, BatchedPredictLogitsWithOffloadRunsLayerByLayer) {
  core::LightweightTransformer model(tiny_options());
  nt::Rng rng(57);
  const auto batch = rng.rand(nt::Shape{4, 3, 32, 32});
  auto session = model.offload(hls::DataType::kFloat32);
  const auto logits = model.predict_logits(batch);
  EXPECT_TRUE(bitwise_equal(logits, session->forward(batch)));
}

// Training forward, predict_logits, backward on the whole model: a typed
// error, not a backward through the training forward's stale state.
TEST(Core, BackwardAfterPredictLogitsThrowsNoBackwardState) {
  core::LightweightTransformer model(tiny_options());
  nt::Rng rng(52);
  const auto x = rng.rand(nt::Shape{2, 3, 32, 32});
  model.model().train(true);
  const auto y = model.model().forward(x);
  (void)model.predict_logits(x);
  EXPECT_THROW((void)model.model().backward(nt::Tensor(y.shape(), 1.0f)),
               nodetr::nn::NoBackwardState);
}
