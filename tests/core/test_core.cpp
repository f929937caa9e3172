#include "nodetr/core/lightweight_transformer.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "nodetr/tensor/ops.hpp"

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
  EXPECT_TRUE(nt::allclose(hw, sw, 1e-3f, 1e-4f));
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

TEST(Core, PredictLogitsRestoresTrainingModeWhenForwardThrows) {
  core::LightweightTransformer model(tiny_options());
  model.model().train(true);
  EXPECT_THROW((void)model.predict_logits(nt::Tensor(nt::Shape{1, 4, 32, 32})),
               std::invalid_argument);
  EXPECT_TRUE(model.model().training());
  EXPECT_TRUE(model.model().recording());
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
