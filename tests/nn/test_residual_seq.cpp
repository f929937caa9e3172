#include <gtest/gtest.h>

#include "../common/gradcheck.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/linear.hpp"
#include "nodetr/nn/norm.hpp"
#include "nodetr/nn/residual.hpp"
#include "nodetr/nn/sequential.hpp"
#include "nodetr/tensor/ops.hpp"

namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;

TEST(Residual, IdentitySkipAddsInput) {
  nt::Rng rng(1);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(2, 2, 3, 1, 1, false, rng);
  nn::Residual res(std::move(body), nullptr, /*final_relu=*/false);
  auto x = rng.randn(nt::Shape{1, 2, 4, 4});
  auto y = res.forward(x);
  // Zeroing the conv weight makes the block the identity.
  for (auto* p : res.parameters()) p->value.zero();
  EXPECT_TRUE(nt::allclose(res.forward(x), x, 0.0f, 0.0f));
  (void)y;
}

TEST(Residual, ProjectionSkipChangesShape) {
  nt::Rng rng(2);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(2, 4, 3, 2, 1, false, rng);
  auto skip = std::make_unique<nn::Sequential>();
  skip->emplace<nn::Conv2d>(2, 4, 1, 2, 0, false, rng);
  nn::Residual res(std::move(body), std::move(skip), true);
  auto x = rng.randn(nt::Shape{1, 2, 6, 6});
  EXPECT_EQ(res.forward(x).shape(), (nt::Shape{1, 4, 3, 3}));
}

TEST(Residual, FinalReluClamps) {
  nt::Rng rng(3);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(1, 1, 1, 1, 0, false, rng);
  nn::Residual res(std::move(body), nullptr, true);
  auto x = rng.randn(nt::Shape{2, 1, 3, 3});
  auto y = res.forward(x);
  EXPECT_GE(nt::min(y), 0.0f);
}

TEST(Residual, GradCheckIdentitySkip) {
  nt::Rng rng(4);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(2, 2, 3, 1, 1, false, rng);
  nn::Residual res(std::move(body), nullptr, true);
  auto x = rng.randn(nt::Shape{1, 2, 3, 3});
  nodetr::testing::expect_gradients_match(res, x, /*seed=*/11, /*checks=*/6, /*eps=*/2e-3f,
                                          /*tol=*/4e-2f);
}

TEST(Residual, GradCheckProjectionSkip) {
  nt::Rng rng(5);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(2, 4, 3, 2, 1, false, rng);
  auto skip = std::make_unique<nn::Sequential>();
  skip->emplace<nn::Conv2d>(2, 4, 1, 2, 0, false, rng);
  nn::Residual res(std::move(body), std::move(skip), false);
  auto x = rng.randn(nt::Shape{1, 2, 4, 4});
  nodetr::testing::expect_gradients_match(res, x);
}

TEST(Residual, NullBodyRejected) {
  EXPECT_THROW(nn::Residual(nullptr), std::invalid_argument);
}
