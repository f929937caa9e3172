#include "nodetr/ode/ode_block.hpp"

#include <gtest/gtest.h>

#include "../common/gradcheck.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/linear.hpp"
#include "nodetr/nn/norm.hpp"
#include "nodetr/nn/sequential.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"

namespace ode = nodetr::ode;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;

namespace {

/// Linear dynamics f(z) = A z with A learnable: the ODE block then computes
/// the Euler-discretized matrix exponential.
std::unique_ptr<nn::Linear> linear_dynamics(nt::index_t d, nt::Rng& rng) {
  return std::make_unique<nn::Linear>(d, d, /*bias=*/false, rng);
}

/// Dynamics that records the times it was evaluated at.
class TimeProbe final : public nn::Module, public ode::TimeAware {
 public:
  nn::Tensor forward(const nn::Tensor& x) override {
    times.push_back(t_);
    return nn::Tensor(x.shape());  // f = 0: identity flow
  }
  nn::Tensor backward(const nn::Tensor& g) override { return nn::Tensor(g.shape()); }
  [[nodiscard]] std::string name() const override { return "TimeProbe"; }
  void set_time(float t) override { t_ = t; }

  std::vector<float> times;

 private:
  float t_ = -1.0f;
};

}  // namespace

TEST(OdeBlock, IdentityDynamicsIsIdentityFlow) {
  auto probe = std::make_unique<TimeProbe>();
  ode::OdeBlock block(std::move(probe), 4);
  nt::Rng rng(1);
  auto x = rng.randn(nt::Shape{2, 3});
  auto y = block.forward(x);
  EXPECT_TRUE(nt::allclose(y, x, 0.0f, 0.0f));
}

TEST(OdeBlock, TimeAwareDynamicsSeesEulerGrid) {
  auto probe = std::make_unique<TimeProbe>();
  auto* p = probe.get();
  ode::OdeBlock block(std::move(probe), 4);
  block.forward(nt::Tensor(nt::Shape{1, 2}));
  ASSERT_EQ(p->times.size(), 4u);
  EXPECT_FLOAT_EQ(p->times[0], 0.0f);
  EXPECT_FLOAT_EQ(p->times[1], 0.25f);
  EXPECT_FLOAT_EQ(p->times[3], 0.75f);
}

TEST(OdeBlock, EulerMatchesManualRecursion) {
  nt::Rng rng(2);
  auto dyn = linear_dynamics(3, rng);
  const nt::Tensor a = dyn->weight().value;  // (3,3)
  ode::OdeBlock block(std::move(dyn), 5);
  auto x = rng.randn(nt::Shape{2, 3});
  auto y = block.forward(x);
  // Manual: z <- z + h (z A^T)
  nt::Tensor z = x;
  const float h = 1.0f / 5.0f;
  for (int j = 0; j < 5; ++j) z.add_scaled(nt::matmul_nt(z, a), h);
  EXPECT_TRUE(nt::allclose(y, z, 1e-5f, 1e-6f));
}

TEST(OdeBlock, ParameterSharingAcrossSteps) {
  // An OdeBlock with C steps has the parameters of ONE dynamics block —
  // the paper's 1/C parameter reduction.
  nt::Rng rng(3);
  ode::OdeBlock c2(linear_dynamics(4, rng), 2);
  ode::OdeBlock c20(linear_dynamics(4, rng), 20);
  EXPECT_EQ(c2.num_parameters(), 16);
  EXPECT_EQ(c20.num_parameters(), 16);
}

TEST(OdeBlock, MoreStepsApproachContinuousSolution) {
  // With f(z) = z (identity weight), z(1) = e z(0); Euler converges to it.
  nt::Rng rng(4);
  auto mk = [&](nt::index_t steps) {
    auto dyn = std::make_unique<nn::Linear>(2, 2, false, rng);
    dyn->weight().value.zero();
    dyn->weight().value.at(0, 0) = 1.0f;
    dyn->weight().value.at(1, 1) = 1.0f;
    return ode::OdeBlock(std::move(dyn), steps);
  };
  nt::Tensor x(nt::Shape{1, 2}, 1.0f);
  auto b4 = mk(4), b64 = mk(64);
  const float e = std::exp(1.0f);
  const float err4 = std::fabs(b4.forward(x)[0] - e);
  const float err64 = std::fabs(b64.forward(x)[0] - e);
  EXPECT_LT(err64, err4);
  EXPECT_NEAR(b64.forward(x)[0], e, 3e-2f);
}

TEST(OdeBlock, Rk4ForwardMoreAccurateThanEuler) {
  nt::Rng rng(5);
  auto mk = [&](ode::SolverKind kind) {
    auto dyn = std::make_unique<nn::Linear>(2, 2, false, rng);
    dyn->weight().value.zero();
    dyn->weight().value.at(0, 0) = 1.0f;
    dyn->weight().value.at(1, 1) = 1.0f;
    return ode::OdeBlock(std::move(dyn), 8, kind);
  };
  nt::Tensor x(nt::Shape{1, 2}, 1.0f);
  auto euler = mk(ode::SolverKind::kEuler);
  auto rk4 = mk(ode::SolverKind::kRk4);
  const float e = std::exp(1.0f);
  EXPECT_LT(std::fabs(rk4.forward(x)[0] - e), std::fabs(euler.forward(x)[0] - e));
}

TEST(OdeBlock, BackwardThrowsAfterNonEulerForward) {
  nt::Rng rng(6);
  ode::OdeBlock block(linear_dynamics(2, rng), 4, ode::SolverKind::kRk4);
  auto x = rng.randn(nt::Shape{1, 2});
  block.forward(x);
  EXPECT_THROW(block.backward(nt::Tensor(nt::Shape{1, 2})), std::logic_error);
}

TEST(OdeBlock, GradCheckLinearDynamics) {
  nt::Rng rng(7);
  ode::OdeBlock block(linear_dynamics(3, rng), 4);
  auto x = rng.randn(nt::Shape{2, 3});
  nodetr::testing::expect_gradients_match(block, x);
}

TEST(OdeBlock, GradCheckConvDynamics) {
  nt::Rng rng(8);
  auto dyn = std::make_unique<nn::Sequential>();
  dyn->emplace<nn::Conv2d>(2, 2, 3, 1, 1, false, rng);
  ode::OdeBlock block(std::move(dyn), 3);
  auto x = rng.randn(nt::Shape{1, 2, 3, 3});
  nodetr::testing::expect_gradients_match(block, x);
}

TEST(OdeBlock, SetStepsChangesIterationCount) {
  nt::Rng rng(9);
  ode::OdeBlock block(linear_dynamics(2, rng), 2);
  block.set_steps(7);
  EXPECT_EQ(block.steps(), 7);
  EXPECT_THROW(block.set_steps(0), std::invalid_argument);
}

TEST(OdeBlock, InvalidConstruction) {
  nt::Rng rng(10);
  EXPECT_THROW(ode::OdeBlock(nullptr, 3), std::invalid_argument);
  EXPECT_THROW(ode::OdeBlock(linear_dynamics(2, rng), 0), std::invalid_argument);
}

// Training forward, inference forward, backward: the inference forward
// caches no Euler trajectory, so the backward is a typed error instead of a
// replay of the training forward's stale states.
TEST(OdeBlock, BackwardAfterInferenceForwardThrowsNoBackwardState) {
  nt::Rng rng(41);
  ode::OdeBlock block(linear_dynamics(4, rng), 3);
  const auto x = rng.randn(nt::Shape{2, 4});
  const auto y = block.forward(x);
  const auto g = rng.randn(y.shape());
  {
    const nn::InferenceScope inference(block);
    (void)block.forward(x);
  }
  EXPECT_THROW((void)block.backward(g), nn::NoBackwardState);
  (void)block.forward(x);
  EXPECT_NO_THROW((void)block.backward(g));
}

TEST(OdeBlock, InferenceForwardBitwiseEqualsEvalForward) {
  nt::Rng rng(42);
  auto dyn = std::make_unique<nn::Sequential>();
  dyn->emplace<nn::BatchNorm2d>(3);
  dyn->emplace<nn::Conv2d>(3, 3, 3, 1, 1, false, rng);
  ode::OdeBlock block(std::move(dyn), 4);
  const auto x = rng.randn(nt::Shape{2, 3, 5, 5});
  (void)block.forward(x);  // training step: non-trivial running statistics
  block.train(false);
  const auto want = block.forward(x);
  nt::Tensor got;
  {
    const nn::InferenceScope inference(block);
    got = block.forward(x);
  }
  ASSERT_EQ(got.shape(), want.shape());
  for (nt::index_t i = 0; i < got.numel(); ++i) ASSERT_EQ(got[i], want[i]) << "at " << i;
}
