#include "nodetr/tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace nt = nodetr::tensor;

TEST(Ops, MapAndZip) {
  auto a = nt::Tensor::arange(4);
  auto sq = nt::map(a, [](float v) { return v * v; });
  EXPECT_EQ(sq[3], 9.0f);
  auto s = nt::zip(a, sq, [](float x, float y) { return x + y; });
  EXPECT_EQ(s[2], 6.0f);
}

TEST(Ops, Relu) {
  nt::Tensor a(nt::Shape{4}, 0.0f);
  a[0] = -2.0f; a[1] = -0.5f; a[2] = 0.0f; a[3] = 3.0f;
  auto r = nt::relu(a);
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[1], 0.0f);
  EXPECT_EQ(r[2], 0.0f);
  EXPECT_EQ(r[3], 3.0f);
}

TEST(Ops, Reductions) {
  auto a = nt::Tensor::arange(5);  // 0..4
  EXPECT_FLOAT_EQ(nt::sum(a), 10.0f);
  EXPECT_FLOAT_EQ(nt::mean(a), 2.0f);
  EXPECT_FLOAT_EQ(nt::max(a), 4.0f);
  EXPECT_FLOAT_EQ(nt::min(a), 0.0f);
  EXPECT_EQ(nt::argmax(a), 4);
  EXPECT_FLOAT_EQ(nt::variance(a), 2.0f);
  EXPECT_FLOAT_EQ(nt::l2_norm(a), std::sqrt(30.0f));
}

TEST(Ops, EmptyReductions) {
  nt::Tensor e(nt::Shape{0});
  EXPECT_EQ(nt::sum(e), 0.0f);
  EXPECT_EQ(nt::mean(e), 0.0f);
  EXPECT_THROW((void)nt::max(e), std::invalid_argument);
  EXPECT_THROW((void)nt::argmax(e), std::invalid_argument);
}

TEST(Ops, DiffStats) {
  auto a = nt::Tensor::arange(4);
  auto b = a;
  b[2] += 0.5f;
  b[3] -= 1.5f;
  EXPECT_FLOAT_EQ(nt::max_abs_diff(a, b), 1.5f);
  EXPECT_FLOAT_EQ(nt::mean_abs_diff(a, b), 0.5f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  auto logits = nt::Tensor::arange(6).reshape(nt::Shape{2, 3});
  auto p = nt::softmax_rows(logits);
  for (nt::index_t r = 0; r < 2; ++r) {
    float s = 0.0f;
    for (nt::index_t c = 0; c < 3; ++c) s += p.at(r, c);
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
  // Monotone in the logits.
  EXPECT_LT(p.at(0, 0), p.at(0, 2));
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  nt::Tensor logits(nt::Shape{1, 3});
  logits[0] = 1000.0f; logits[1] = 1001.0f; logits[2] = 999.0f;
  auto p = nt::softmax_rows(logits);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-5f);
  EXPECT_GT(p[1], p[0]);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  auto logits = nt::Tensor::arange(8).reshape(nt::Shape{2, 4});
  auto p = nt::softmax_rows(logits);
  auto lp = nt::log_softmax_rows(logits);
  for (nt::index_t i = 0; i < p.numel(); ++i) EXPECT_NEAR(lp[i], std::log(p[i]), 1e-5f);
}

TEST(Ops, Concat0) {
  auto a = nt::Tensor::arange(6).reshape(nt::Shape{2, 3});
  auto b = nt::Tensor::full(nt::Shape{1, 3}, 7.0f);
  auto c = nt::concat0({a, b});
  EXPECT_EQ(c.shape(), (nt::Shape{3, 3}));
  EXPECT_EQ(c.at(2, 1), 7.0f);
  EXPECT_THROW(nt::concat0({a, nt::Tensor(nt::Shape{1, 4})}), std::invalid_argument);
}

TEST(Ops, Allclose) {
  auto a = nt::Tensor::ones(nt::Shape{3});
  auto b = a;
  EXPECT_TRUE(nt::allclose(a, b));
  b[1] += 1e-7f;
  EXPECT_TRUE(nt::allclose(a, b));
  b[1] += 1.0f;
  EXPECT_FALSE(nt::allclose(a, b));
  EXPECT_FALSE(nt::allclose(a, nt::Tensor(nt::Shape{4})));
}
