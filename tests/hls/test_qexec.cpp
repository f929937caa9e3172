#include "nodetr/hls/qexec.hpp"

#include <gtest/gtest.h>

#include "nodetr/models/zoo.hpp"
#include "nodetr/tensor/ops.hpp"

namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace m = nodetr::models;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;

namespace {
hls::QuantizedExecutor default_exec() { return hls::QuantizedExecutor(fx::scheme_32_24()); }
}  // namespace

TEST(QExec, ConvLayerMatchesFloat) {
  nt::Rng rng(1);
  nn::Conv2d conv(3, 4, 3, 1, 1, true, rng);
  conv.train(false);
  auto x = rng.randn(nt::Shape{2, 3, 5, 5});
  auto exec = default_exec();
  EXPECT_LE(nt::max_abs_diff(exec.run(conv, x), conv.forward(x)), 2e-2f);
}

TEST(QExec, SequentialChainMatchesFloat) {
  nt::Rng rng(2);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(3, 8, 3, 2, 1, false, rng);
  net.emplace<nn::BatchNorm2d>(8);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2d>(3, 2, 1);
  net.emplace<nn::GlobalAvgPool>();
  net.emplace<nn::Linear>(8, 4, true, rng);
  // Prime BN running stats, then evaluate.
  net.train(true);
  for (int i = 0; i < 10; ++i) (void)net.forward(rng.rand(nt::Shape{4, 3, 16, 16}));
  net.train(false);
  auto x = rng.rand(nt::Shape{2, 3, 16, 16});
  auto exec = default_exec();
  EXPECT_LE(nt::max_abs_diff(exec.run(net, x), net.forward(x)), 5e-2f);
}

TEST(QExec, FullProposedModelMatchesFloatAtWideFormat) {
  nt::Rng rng(3);
  auto model = m::make_model(m::ModelKind::kTinyProposed, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{2, 3, 32, 32});
  auto ref = model->forward(x);
  auto exec = default_exec();
  auto q = exec.run(*model, x);
  EXPECT_EQ(q.shape(), ref.shape());
  // 32(16)-24(8): the paper's "no degradation" point.
  EXPECT_LE(nt::max_abs_diff(q, ref), 0.05f);
}

TEST(QExec, FullOdeNetMatchesFloat) {
  nt::Rng rng(4);
  auto model = m::make_model(m::ModelKind::kTinyOdeNet, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{1, 3, 32, 32});
  auto exec = default_exec();
  EXPECT_LE(nt::max_abs_diff(exec.run(*model, x), model->forward(x)), 0.05f);
}

TEST(QExec, ErrorGrowsWithNarrowerSchemes) {
  nt::Rng rng(5);
  auto model = m::make_model(m::ModelKind::kTinyProposed, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{1, 3, 32, 32});
  auto ref = model->forward(x);
  float prev = -1.0f;
  for (const auto& scheme : fx::table8_schemes()) {
    hls::QuantizedExecutor exec(scheme);
    const float err = nt::mean_abs_diff(exec.run(*model, x), ref);
    EXPECT_GE(err, prev * 0.3f) << scheme.to_string();
    prev = std::max(prev, err);
  }
  EXPECT_GT(prev, 1e-3f);
}

TEST(QExec, DeterministicBitExactAcrossRuns) {
  nt::Rng rng(6);
  auto model = m::make_model(m::ModelKind::kTinyProposed, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{1, 3, 32, 32});
  hls::QuantizedExecutor exec(fx::scheme_20_16());
  auto a = exec.run(*model, x);
  auto b = exec.run(*model, x);
  EXPECT_TRUE(nt::allclose(a, b, 0.0f, 0.0f));
}

TEST(QExec, RejectsUnsupportedModules) {
  nt::Rng rng(7);
  nn::SeqMhsa unsupported(8, 2, rng);
  auto exec = default_exec();
  EXPECT_THROW((void)exec.run(unsupported, nt::Tensor(nt::Shape{1, 3, 8})),
               std::invalid_argument);
  // The lowering itself refuses these two, before any op runs.
  const auto expect_lowering_throws = [&](nn::Module& mod, const nt::Tensor& x) {
    try {
      (void)exec.run(mod, x);
      ADD_FAILURE() << mod.name() << " ran on the fixed datapath";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("LayerPlan"), std::string::npos) << e.what();
    }
  };
  // The IP implements ReLU attention only (Eq. 16).
  nn::MhsaConfig softmax{.dim = 8, .heads = 2, .height = 2, .width = 2,
                         .attention = nn::AttentionKind::kSoftmax};
  nn::MultiHeadSelfAttention softmax_mhsa(softmax, rng);
  expect_lowering_throws(softmax_mhsa, nt::Tensor(nt::Shape{1, 8, 2, 2}));
  // A LayerNorm runs only inside the MHSA IP (Eq. 17), never as a plan op.
  nn::LayerNorm layer_norm(8);
  expect_lowering_throws(layer_norm, nt::Tensor(nt::Shape{1, 3, 8}));
}

// The fixed path only reads the model: a failed run leaves its mode alone.
TEST(QExec, FailedRunLeavesTrainingModeUnchanged) {
  nt::Rng rng(9);
  auto model = m::make_model(m::ModelKind::kTinyOdeNet, 32, 10, rng);
  for (auto* b : static_cast<m::OdeNet*>(model.get())->ode_blocks()) {
    b->set_solver(nodetr::ode::SolverKind::kRk4);
  }
  model->train(true);
  auto exec = default_exec();
  EXPECT_THROW((void)exec.run(*model, nt::Tensor(nt::Shape{1, 3, 32, 32})),
               std::invalid_argument);
  EXPECT_TRUE(model->training());
}

// A wide feature format is near lossless through a small network.
TEST(QExec, WideFormatIsNearLossless) {
  nt::Rng rng(3);
  nn::Sequential net;
  net.emplace<nn::Linear>(6, 6, true, rng);
  net.emplace<nn::ReLU>();
  auto x = rng.randn(nt::Shape{4, 6});
  auto exec = default_exec();
  EXPECT_LT(nt::max_abs_diff(exec.run(net, x), net.forward(x)), 1e-4f);
}

TEST(QExec, NarrowFormatDistortsMore) {
  nt::Rng rng(4);
  nn::Sequential net;
  net.emplace<nn::Linear>(6, 6, true, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(6, 6, true, rng);
  auto x = rng.randn(nt::Shape{4, 6});
  auto ref = net.forward(x);
  hls::QuantizedExecutor wide({.feature = {16, 8}, .param = {16, 8}});
  hls::QuantizedExecutor narrow({.feature = {8, 4}, .param = {8, 4}});
  EXPECT_GT(nt::max_abs_diff(narrow.run(net, x), ref), nt::max_abs_diff(wide.run(net, x), ref));
}

TEST(QExec, RejectsNonEulerOdeBlocks) {
  nt::Rng rng(8);
  auto model = m::make_model(m::ModelKind::kTinyOdeNet, 32, 10, rng);
  model->train(false);
  auto* onet = static_cast<m::OdeNet*>(model.get());
  for (auto* b : onet->ode_blocks()) b->set_solver(nodetr::ode::SolverKind::kRk4);
  auto exec = default_exec();
  EXPECT_THROW((void)exec.run(*model, nt::Tensor(nt::Shape{1, 3, 32, 32})),
               std::invalid_argument);
}
