// Cross-module integration tests: the full pipeline a downstream user runs —
// data -> train -> checkpoint -> offloaded/quantized inference.
#include <gtest/gtest.h>

#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/hls/qexec.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/train/trainer.hpp"

namespace core = nodetr::core;
namespace d = nodetr::data;
namespace fx = nodetr::fx;
namespace hls = nodetr::hls;
namespace nt = nodetr::tensor;
namespace tr = nodetr::train;

namespace {

core::Options tiny_options() {
  core::Options o;
  o.image_size = 32;
  o.solver_steps = 2;
  o.stem_channels = 16;
  o.mhsa_bottleneck = 16;
  o.mhsa_heads = 2;
  return o;
}

const d::SynthStl& dataset() {
  static d::SynthStl ds({.image_size = 32, .train_per_class = 6, .test_per_class = 3,
                         .seed = 0x17e9, .noise_stddev = 0.05f});
  return ds;
}

}  // namespace

TEST(EndToEnd, TrainCheckpointReloadPredictConsistently) {
  core::LightweightTransformer model(tiny_options());
  tr::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 12;
  cfg.augment = true;  // exercise the augmentation path
  cfg.sgd = {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.eta_max = 0.01f, .eta_min = 1e-3f, .t0 = 10, .t_mult = 2};
  auto hist = model.fit(dataset().train(), dataset().test(), cfg);
  ASSERT_EQ(hist.epochs.size(), 2u);

  const std::string path = ::testing::TempDir() + "/e2e_ckpt.bin";
  model.save(path);
  core::LightweightTransformer reloaded(tiny_options());
  reloaded.load(path);
  auto batch = d::stack(dataset().test(), 0, 6);
  EXPECT_TRUE(nt::allclose(reloaded.predict_logits(batch.images),
                           model.predict_logits(batch.images), 1e-5f, 1e-6f));
}

TEST(EndToEnd, TrainedModelSurvivesOffloadAndQuantization) {
  core::LightweightTransformer model(tiny_options());
  tr::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 12;
  cfg.augment = false;
  cfg.sgd = {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.eta_max = 0.01f, .eta_min = 1e-3f, .t0 = 10, .t_mult = 2};
  (void)model.fit(dataset().train(), dataset().test(), cfg);
  model.model().train(false);

  auto batch = d::stack(dataset().test(), 0, 8);
  const auto sw = model.predict_logits(batch.images);

  // Float IP offload: numerically identical up to fp reassociation.
  {
    auto session = model.offload(hls::DataType::kFloat32);
    EXPECT_TRUE(nt::allclose(session->forward(batch.images), sw, 1e-3f, 1e-4f));
  }
  // Whole model on the bit-accurate fixed datapath at the default scheme:
  // small, bounded error.
  hls::QuantizedExecutor exec(fx::scheme_32_24());
  EXPECT_LT(nt::max_abs_diff(exec.run(model.model(), batch.images), sw), 0.05f);
  // The model is untouched: the software path reproduces the original logits.
  EXPECT_TRUE(nt::allclose(model.predict_logits(batch.images), sw, 0.0f, 0.0f));
}

TEST(EndToEnd, QuantizationErrorMonotoneInLogits) {
  core::LightweightTransformer model(tiny_options());
  model.model().train(false);
  auto batch = d::stack(dataset().test(), 0, 8);
  const auto ref = model.predict_logits(batch.images);
  float prev = -1.0f;
  for (const auto& scheme : fx::table8_schemes()) {
    hls::QuantizedExecutor exec(scheme);
    const float err = nt::mean_abs_diff(exec.run(model.model(), batch.images), ref);
    EXPECT_GE(err, prev * 0.5f) << scheme.to_string();
    prev = std::max(prev, err);
  }
  EXPECT_GT(prev, 1e-3f);
}

TEST(EndToEnd, SolverRetuningAfterTrainingKeepsPredictionsSane) {
  core::LightweightTransformer model(tiny_options());
  tr::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 12;
  cfg.augment = false;
  cfg.sgd = {.lr = 0.01f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.eta_max = 0.01f, .eta_min = 1e-3f, .t0 = 10, .t_mult = 2};
  (void)model.fit(dataset().train(), dataset().test(), cfg);
  model.model().train(false);
  auto batch = d::stack(dataset().test(), 0, 8);
  const auto euler = model.predict_logits(batch.images);
  for (auto* b : model.model().ode_blocks()) {
    b->set_solver(nodetr::ode::SolverKind::kRk4);
    b->set_steps(8);
  }
  const auto rk4 = model.predict_logits(batch.images);
  // Same learned flow, finer integration: outputs close but not identical.
  EXPECT_LT(nt::mean_abs_diff(rk4, euler), 1.0f);
  EXPECT_GT(nt::max_abs_diff(rk4, euler), 0.0f);
}
