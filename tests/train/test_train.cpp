#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <vector>

#include "nodetr/data/synth_stl.hpp"
#include "nodetr/nn/activations.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/linear.hpp"
#include "nodetr/nn/pool.hpp"
#include "nodetr/nn/sequential.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/train/checkpoint.hpp"
#include "nodetr/train/loss.hpp"
#include "nodetr/train/optimizer.hpp"
#include "nodetr/train/scheduler.hpp"
#include "nodetr/train/trainer.hpp"

namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace tr = nodetr::train;
namespace d = nodetr::data;

TEST(CrossEntropy, UniformLogitsGiveLogK) {
  nt::Tensor logits(nt::Shape{2, 4});
  auto res = tr::cross_entropy(logits, {0, 3});
  EXPECT_NEAR(res.loss, std::log(4.0f), 1e-5f);
}

TEST(CrossEntropy, PerfectPredictionLowLoss) {
  nt::Tensor logits(nt::Shape{1, 3});
  logits[1] = 100.0f;
  auto res = tr::cross_entropy(logits, {1});
  EXPECT_LT(res.loss, 1e-3f);
}

TEST(CrossEntropy, GradientIsSoftmaxMinusOnehotOverB) {
  nt::Tensor logits(nt::Shape{2, 3});
  auto res = tr::cross_entropy(logits, {0, 2});
  // softmax uniform = 1/3; grad = (1/3 - onehot)/2.
  EXPECT_NEAR(res.grad_logits.at(0, 0), (1.0f / 3 - 1) / 2, 1e-5f);
  EXPECT_NEAR(res.grad_logits.at(0, 1), (1.0f / 3) / 2, 1e-5f);
  EXPECT_NEAR(res.grad_logits.at(1, 2), (1.0f / 3 - 1) / 2, 1e-5f);
  // Gradient sums to zero per row.
  float s = 0.0f;
  for (nt::index_t c = 0; c < 3; ++c) s += res.grad_logits.at(0, c);
  EXPECT_NEAR(s, 0.0f, 1e-6f);
}

TEST(CrossEntropy, RejectsBadLabels) {
  nt::Tensor logits(nt::Shape{1, 3});
  EXPECT_THROW(tr::cross_entropy(logits, {3}), std::invalid_argument);
  EXPECT_THROW(tr::cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  nn::Param p("w", nt::Tensor(nt::Shape{2}, 1.0f));
  p.grad.fill(0.5f);
  tr::Sgd opt({.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.0f});
  opt.step({&p});
  EXPECT_NEAR(p.value[0], 1.0f - 0.05f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  nn::Param p("w", nt::Tensor(nt::Shape{1}, 0.0f));
  tr::Sgd opt({.lr = 1.0f, .momentum = 0.5f, .weight_decay = 0.0f});
  p.grad.fill(1.0f);
  opt.step({&p});  // v=1, w=-1
  p.grad.fill(1.0f);
  opt.step({&p});  // v=1.5, w=-2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-6f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  nn::Param p("w", nt::Tensor(nt::Shape{1}, 10.0f));
  p.grad.zero();
  tr::Sgd opt({.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.1f});
  opt.step({&p});
  EXPECT_LT(p.value[0], 10.0f);
}

TEST(Sgd, MinimizesQuadratic) {
  // f(w) = 0.5 (w-3)^2; gradient descent converges to 3.
  nn::Param p("w", nt::Tensor(nt::Shape{1}, 0.0f));
  tr::Sgd opt({.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f});
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = p.value[0] - 3.0f;
    opt.step({&p});
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2f);
}

TEST(Scheduler, StartsAtEtaMaxAndDecays) {
  tr::CosineWarmRestarts s({.eta_max = 0.1f, .eta_min = 1e-4f, .t0 = 10, .t_mult = 2});
  EXPECT_FLOAT_EQ(s.lr_at(0), 0.1f);
  EXPECT_GT(s.lr_at(3), s.lr_at(7));
  EXPECT_NEAR(s.lr_at(9), 1e-4f, 5e-3f);
}

TEST(Scheduler, RestartsAtT0ThenDoubledPeriods) {
  tr::CosineWarmRestarts s({.eta_max = 0.1f, .eta_min = 1e-4f, .t0 = 10, .t_mult = 2});
  // Cycles: [0,10), [10,30), [30,70), ...
  EXPECT_TRUE(s.is_restart(0));
  EXPECT_TRUE(s.is_restart(10));
  EXPECT_TRUE(s.is_restart(30));
  EXPECT_TRUE(s.is_restart(70));
  EXPECT_FALSE(s.is_restart(11));
  EXPECT_FLOAT_EQ(s.lr_at(10), 0.1f);
  EXPECT_FLOAT_EQ(s.lr_at(30), 0.1f);
}

TEST(Scheduler, NonMonotoneAcrossRestart) {
  tr::CosineWarmRestarts s(tr::CosineWarmRestartsConfig{});
  EXPECT_LT(s.lr_at(9), s.lr_at(10));  // the Figs. 6-8 sawtooth
}

TEST(Scheduler, InvalidConfigRejected) {
  EXPECT_THROW(tr::CosineWarmRestarts({.t0 = 0}), std::invalid_argument);
  EXPECT_THROW(tr::CosineWarmRestarts({.t_mult = 0}), std::invalid_argument);
}

namespace {

/// Tiny convnet classifier for smoke training.
std::unique_ptr<nn::Sequential> tiny_net(nt::Rng& rng) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 3, 2, 1, true, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(8, 16, 3, 2, 1, true, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::GlobalAvgPool>();
  net->emplace<nn::Linear>(16, 10, true, rng);
  return net;
}

}  // namespace

TEST(Trainer, LossDecreasesOnTinyProblem) {
  d::SynthStl ds({.image_size = 16, .train_per_class = 6, .test_per_class = 3, .seed = 20,
                  .noise_stddev = 0.05f});
  nt::Rng rng(21);
  auto net = tiny_net(rng);
  tr::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 10;
  cfg.augment = false;
  cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.eta_max = 0.05f, .eta_min = 1e-3f, .t0 = 10, .t_mult = 2};
  auto hist = tr::fit(*net, ds.train(), ds.test(), cfg);
  ASSERT_EQ(hist.epochs.size(), 6u);
  EXPECT_LT(hist.epochs.back().train_loss, hist.epochs.front().train_loss);
  // Better than chance (10%).
  EXPECT_GT(hist.best_accuracy(), 0.15f);
}

TEST(Trainer, HistoryCsvHasHeaderAndRows) {
  tr::History h;
  h.epochs.push_back({.epoch = 0, .train_loss = 2.0f, .test_accuracy = 0.1f, .lr = 0.1f});
  auto csv = h.to_csv();
  EXPECT_NE(csv.find("epoch,lr,train_loss,test_accuracy"), std::string::npos);
  EXPECT_NE(csv.find("\n0,"), std::string::npos);
}

TEST(Trainer, EvaluateRestoresTrainingMode) {
  d::SynthStl ds({.image_size = 16, .train_per_class = 1, .test_per_class = 1, .seed = 22});
  nt::Rng rng(23);
  auto net = tiny_net(rng);
  net->train(true);
  const float accuracy = tr::evaluate(*net, ds.test(), 8);
  EXPECT_GE(accuracy, 0.0f);
  EXPECT_LE(accuracy, 1.0f);
  EXPECT_TRUE(net->training());
}

TEST(Checkpoint, RoundTripRestoresParameters) {
  nt::Rng rng(24);
  auto net = tiny_net(rng);
  const std::string path = ::testing::TempDir() + "/nodetr_ckpt_test.bin";
  tr::save_checkpoint(path, *net);
  // Perturb, then reload.
  for (auto* p : net->parameters()) p->value += 1.0f;
  auto x = rng.randn(nt::Shape{1, 3, 16, 16});
  net->train(false);
  auto before = net->forward(x);
  tr::load_checkpoint(path, *net);
  auto after = net->forward(x);
  EXPECT_GT(nt::max_abs_diff(before, after), 1e-4f);
  // Reload is idempotent.
  tr::load_checkpoint(path, *net);
  EXPECT_TRUE(nt::allclose(net->forward(x), after, 0.0f, 0.0f));
}

TEST(Checkpoint, MismatchedModelRejected) {
  nt::Rng rng(25);
  auto net = tiny_net(rng);
  const std::string path = ::testing::TempDir() + "/nodetr_ckpt_mismatch.bin";
  tr::save_checkpoint(path, *net);
  nn::Sequential other;
  other.emplace<nn::Linear>(4, 2, true, rng);
  EXPECT_THROW(tr::load_checkpoint(path, other), std::runtime_error);
}

TEST(QuantCheckpoint, RoundTripMatchesBlockRoundtrip) {
  // A v2 checkpoint stores the degraded weights: loading it must reproduce
  // exactly block_roundtrip(original) per parameter, not the original.
  nt::Rng rng(26);
  auto net = tiny_net(rng);
  std::vector<nt::Tensor> want;
  for (auto* p : net->parameters()) {
    want.push_back(nodetr::fx::block_roundtrip(p->value, nodetr::fx::BlockType::kInt8, 32));
  }
  const std::string path = ::testing::TempDir() + "/nodetr_ckpt_quant.bin";
  tr::save_checkpoint_quantized(
      path, *net, nodetr::fx::MixedPrecisionPolicy::uniform(nodetr::fx::LayerPrecision::kInt8));
  for (auto* p : net->parameters()) p->value += 1.0f;  // perturb
  tr::load_checkpoint(path, *net);
  const auto params = net->parameters();
  ASSERT_EQ(params.size(), want.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(nt::allclose(params[i]->value, want[i], 0.0f, 0.0f)) << params[i]->name;
  }
}

TEST(QuantCheckpoint, MixedPolicyKeepsSensitiveLayersExact) {
  nt::Rng rng(27);
  auto net = tiny_net(rng);
  std::vector<nt::Tensor> originals;
  for (auto* p : net->parameters()) originals.push_back(p->value);
  // Biases stay float; everything else drops to int4 — the Table-8-style
  // "sensitive layers keep precision" split.
  nodetr::fx::MixedPrecisionPolicy policy;
  policy.fallback = nodetr::fx::LayerPrecision::kInt4;
  policy.rules = {{"bias", nodetr::fx::LayerPrecision::kFloat32}};
  const std::string path = ::testing::TempDir() + "/nodetr_ckpt_mixed.bin";
  tr::save_checkpoint_quantized(path, *net, policy);
  for (auto* p : net->parameters()) p->value += 1.0f;
  tr::load_checkpoint(path, *net);
  const auto params = net->parameters();
  bool saw_float = false, saw_quant = false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->name.find("bias") != std::string::npos) {
      EXPECT_TRUE(nt::allclose(params[i]->value, originals[i], 0.0f, 0.0f)) << params[i]->name;
      saw_float = true;
    } else if (params[i]->value.numel() > 64) {
      // Large weight tensors essentially never survive int4 bit-exactly.
      EXPECT_GT(nt::max_abs_diff(params[i]->value, originals[i]), 0.0f) << params[i]->name;
      saw_quant = true;
    }
  }
  EXPECT_TRUE(saw_float);
  EXPECT_TRUE(saw_quant);
}

TEST(QuantCheckpoint, QuantizedFileIsSmaller) {
  nt::Rng rng(28);
  auto net = tiny_net(rng);
  const std::string fpath = ::testing::TempDir() + "/nodetr_ckpt_f.bin";
  const std::string qpath = ::testing::TempDir() + "/nodetr_ckpt_q.bin";
  tr::save_checkpoint(fpath, *net);
  tr::save_checkpoint_quantized(
      qpath, *net, nodetr::fx::MixedPrecisionPolicy::uniform(nodetr::fx::LayerPrecision::kInt8));
  EXPECT_LT(std::filesystem::file_size(qpath), std::filesystem::file_size(fpath));
}

TEST(QuantCheckpoint, CorruptedBlockRecordRejectedAtomically) {
  nt::Rng rng(29);
  auto net = tiny_net(rng);
  const std::string path = ::testing::TempDir() + "/nodetr_ckpt_corrupt.bin";
  tr::save_checkpoint_quantized(
      path, *net, nodetr::fx::MixedPrecisionPolicy::uniform(nodetr::fx::LayerPrecision::kInt8));
  // Flip one byte inside the first quantized record's code payload (offset
  // 120 lands mid-codes for the first conv weight): the block checksum must
  // reject the file, and the model must stay untouched.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    char b = 0;
    f.seekg(120, std::ios::beg);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x20);
    f.seekp(120, std::ios::beg);
    f.write(&b, 1);
  }
  std::vector<nt::Tensor> before;
  for (auto* p : net->parameters()) before.push_back(p->value);
  EXPECT_THROW(tr::load_checkpoint(path, *net), tr::CheckpointError);
  const auto params = net->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(nt::allclose(params[i]->value, before[i], 0.0f, 0.0f));
  }
}

TEST(QuantCheckpoint, TruncatedFileRejected) {
  nt::Rng rng(30);
  auto net = tiny_net(rng);
  const std::string path = ::testing::TempDir() + "/nodetr_ckpt_trunc.bin";
  tr::save_checkpoint_quantized(
      path, *net, nodetr::fx::MixedPrecisionPolicy::uniform(nodetr::fx::LayerPrecision::kInt4));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(tr::load_checkpoint(path, *net), tr::CheckpointError);
}

TEST(Trainer, EvaluateRestoresTrainingModeWhenForwardThrows) {
  nt::Rng rng(24);
  auto net = tiny_net(rng);
  net->train(true);
  // Four-channel images: the first convolution rejects them mid-evaluation.
  const std::vector<d::Sample> bad{{rng.rand(nt::Shape{4, 16, 16}), 0}};
  EXPECT_THROW((void)tr::evaluate(*net, bad, 8), std::invalid_argument);
  EXPECT_TRUE(net->training());
  EXPECT_TRUE(net->recording());
}

TEST(Trainer, BackwardAfterEvaluateThrowsNoBackwardState) {
  d::SynthStl ds({.image_size = 16, .train_per_class = 1, .test_per_class = 1, .seed = 25});
  nt::Rng rng(26);
  auto net = tiny_net(rng);
  net->train(true);
  const auto logits = net->forward(rng.rand(nt::Shape{2, 3, 16, 16}));
  (void)tr::evaluate(*net, ds.test(), 8);
  EXPECT_THROW((void)net->backward(nt::Tensor(logits.shape(), 1.0f)), nn::NoBackwardState);
}
