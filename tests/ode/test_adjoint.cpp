#include "nodetr/ode/adjoint.hpp"

#include <gtest/gtest.h>

#include "../common/gradcheck.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/linear.hpp"
#include "nodetr/nn/sequential.hpp"
#include "nodetr/ode/ode_block.hpp"
#include "nodetr/tensor/ops.hpp"

namespace ode = nodetr::ode;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;

namespace {
std::unique_ptr<nn::Linear> linear_dynamics(nt::index_t d, nt::Rng& rng) {
  return std::make_unique<nn::Linear>(d, d, false, rng);
}
}  // namespace

TEST(AdjointOdeBlock, ForwardMatchesCheckpointedOdeBlock) {
  nt::Rng rng(1);
  auto dyn_a = linear_dynamics(3, rng);
  nt::Rng rng2(1);
  auto dyn_b = linear_dynamics(3, rng2);
  ode::AdjointOdeBlock adjoint(std::move(dyn_a), 5);
  ode::OdeBlock checkpointed(std::move(dyn_b), 5);
  auto x = rng.randn(nt::Shape{2, 3});
  EXPECT_TRUE(nt::allclose(adjoint.forward(x), checkpointed.forward(x), 1e-6f, 1e-7f));
}

TEST(AdjointOdeBlock, GradientsMatchDiscretizeThenOptimize) {
  // For Euler, the discrete adjoint recursion IS the exact transpose of the
  // forward recursion, so both training modes agree to fp rounding.
  nt::Rng rng(2);
  auto dyn_a = linear_dynamics(4, rng);
  nt::Rng rng2(2);
  auto dyn_b = linear_dynamics(4, rng2);
  ode::AdjointOdeBlock adjoint(std::move(dyn_a), 4);
  ode::OdeBlock checkpointed(std::move(dyn_b), 4);
  auto x = rng.randn(nt::Shape{2, 4});
  nt::Rng crng(3);
  auto cot = crng.randn(nt::Shape{2, 4});

  adjoint.zero_grad();
  adjoint.forward(x);
  auto gx_a = adjoint.backward(cot);
  checkpointed.zero_grad();
  checkpointed.forward(x);
  auto gx_c = checkpointed.backward(cot);

  EXPECT_TRUE(nt::allclose(gx_a, gx_c, 1e-4f, 1e-5f));
  auto pa = adjoint.parameters();
  auto pc = checkpointed.parameters();
  ASSERT_EQ(pa.size(), pc.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(nt::allclose(pa[i]->grad, pc[i]->grad, 1e-4f, 1e-5f)) << pa[i]->name;
  }
}

TEST(AdjointOdeBlock, GradCheckAgainstNumerical) {
  nt::Rng rng(4);
  ode::AdjointOdeBlock block(linear_dynamics(3, rng), 3);
  auto x = rng.randn(nt::Shape{2, 3});
  nodetr::testing::expect_gradients_match(block, x);
}

TEST(AdjointOdeBlock, GradCheckConvDynamics) {
  nt::Rng rng(5);
  auto dyn = std::make_unique<nn::Sequential>();
  dyn->emplace<nn::Conv2d>(2, 2, 3, 1, 1, false, rng);
  ode::AdjointOdeBlock block(std::move(dyn), 3);
  auto x = rng.randn(nt::Shape{1, 2, 3, 3});
  nodetr::testing::expect_gradients_match(block, x);
}

TEST(AdjointOdeBlock, ParameterSharingHolds) {
  nt::Rng rng(6);
  ode::AdjointOdeBlock c3(linear_dynamics(4, rng), 3);
  ode::AdjointOdeBlock c30(linear_dynamics(4, rng), 30);
  EXPECT_EQ(c3.num_parameters(), 16);
  EXPECT_EQ(c30.num_parameters(), 16);
}

TEST(AdjointOdeBlock, BackwardBeforeForwardThrows) {
  nt::Rng rng(7);
  ode::AdjointOdeBlock block(linear_dynamics(2, rng), 2);
  EXPECT_THROW((void)block.backward(nt::Tensor(nt::Shape{1, 2})), std::logic_error);
}

TEST(AdjointOdeBlock, InvalidConstruction) {
  nt::Rng rng(8);
  EXPECT_THROW(ode::AdjointOdeBlock(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(ode::AdjointOdeBlock(linear_dynamics(2, rng), 0), std::invalid_argument);
}

// The inference forward keeps no entry state, so the adjoint backward has
// nothing to re-solve from and is a typed error.
TEST(AdjointOdeBlock, BackwardAfterInferenceForwardThrowsNoBackwardState) {
  nt::Rng rng(43);
  ode::AdjointOdeBlock block(linear_dynamics(4, rng), 3);
  const auto x = rng.randn(nt::Shape{2, 4});
  const auto y = block.forward(x);
  const auto g = rng.randn(y.shape());
  nt::Tensor scoped;
  {
    const nn::InferenceScope inference(block);
    scoped = block.forward(x);
  }
  for (nt::index_t i = 0; i < y.numel(); ++i) EXPECT_EQ(scoped[i], y[i]) << "at " << i;
  EXPECT_THROW((void)block.backward(g), nn::NoBackwardState);
}
