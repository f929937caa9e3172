#include "nodetr/tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/rng.hpp"

namespace nt = nodetr::tensor;

namespace {

// Reference triple-loop product for validation.
nt::Tensor naive_matmul(const nt::Tensor& a, const nt::Tensor& b) {
  const auto m = a.dim(0), k = a.dim(1), n = b.dim(1);
  nt::Tensor c(nt::Shape{m, n});
  for (nt::index_t i = 0; i < m; ++i)
    for (nt::index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (nt::index_t p = 0; p < k; ++p) acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

}  // namespace

TEST(Gemm, SmallKnownValues) {
  nt::Tensor a(nt::Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  nt::Tensor b(nt::Shape{2, 2}, std::vector<float>{5, 6, 7, 8});
  auto c = nt::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Gemm, IdentityIsNeutral) {
  nt::Rng rng(1);
  auto a = rng.randn(nt::Shape{5, 5});
  nt::Tensor eye(nt::Shape{5, 5});
  for (nt::index_t i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  EXPECT_TRUE(nt::allclose(nt::matmul(a, eye), a, 1e-5f, 1e-6f));
  EXPECT_TRUE(nt::allclose(nt::matmul(eye, a), a, 1e-5f, 1e-6f));
}

TEST(Gemm, MatchesNaiveOnRandomRectangular) {
  nt::Rng rng(2);
  auto a = rng.randn(nt::Shape{17, 23});
  auto b = rng.randn(nt::Shape{23, 9});
  EXPECT_TRUE(nt::allclose(nt::matmul(a, b), naive_matmul(a, b), 1e-4f, 1e-4f));
}

TEST(Gemm, InnerDimMismatchThrows) {
  nt::Tensor a(nt::Shape{2, 3}), b(nt::Shape{2, 2});
  EXPECT_THROW(nt::matmul(a, b), std::invalid_argument);
}

TEST(Gemm, MatmulNTEquivalence) {
  nt::Rng rng(3);
  auto a = rng.randn(nt::Shape{6, 11});
  auto b = rng.randn(nt::Shape{7, 11});
  EXPECT_TRUE(nt::allclose(nt::matmul_nt(a, b), nt::matmul(a, b.transposed()), 1e-4f, 1e-4f));
}

TEST(Gemm, MatmulTNEquivalence) {
  nt::Rng rng(4);
  auto a = rng.randn(nt::Shape{11, 6});
  auto b = rng.randn(nt::Shape{11, 7});
  EXPECT_TRUE(nt::allclose(nt::matmul_tn(a, b), nt::matmul(a.transposed(), b), 1e-4f, 1e-4f));
}

TEST(Gemm, AccumulateAddsIntoExistingOutput) {
  nt::Tensor a(nt::Shape{1, 2}, std::vector<float>{1, 1});
  nt::Tensor b(nt::Shape{2, 1}, std::vector<float>{2, 3});
  nt::Tensor c(nt::Shape{1, 1}, 10.0f);
  nt::gemm_accumulate(a.data(), b.data(), c.data(), 1, 2, 1);
  EXPECT_FLOAT_EQ(c[0], 15.0f);
}

// Property sweep: matmul matches naive reference across sizes.
class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  nt::Rng rng(static_cast<std::uint64_t>(m * 100 + k * 10 + n));
  auto a = rng.randn(nt::Shape{m, k});
  auto b = rng.randn(nt::Shape{k, n});
  EXPECT_TRUE(nt::allclose(nt::matmul(a, b), naive_matmul(a, b), 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmSizes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 8, 1},
                                           std::tuple{3, 1, 5}, std::tuple{16, 16, 16},
                                           std::tuple{33, 7, 19}, std::tuple{64, 32, 8}));

// A GEMM under 2^18 MACs runs entirely on the calling thread; one at or
// above it forks the pool. Either way every output row is bitwise the row a
// one-row GEMM computes, epilogue included: the tile split never changes any
// element's k order.
TEST(Gemm, BitwiseEqualOnBothSidesOfTheSerialThreshold) {
  auto& runs = nodetr::obs::Registry::instance().counter("tensor.pool.runs");
  const bool pooled = nt::ThreadPool::global().size() > 1;
  struct Case {
    nt::index_t m, k, n;
    bool serial;
  };
  // 64 * 64 * 63 = 2^18 - 4096 MACs; 64 * 64 * 64 = 2^18.
  const Case cases[] = {{64, 63, 64, true}, {64, 64, 64, false}, {96, 80, 72, false}};
  nt::Rng rng(31);
  for (const auto& c : cases) {
    const auto a = rng.randn(nt::Shape{c.m, c.k});
    const auto b = rng.randn(nt::Shape{c.n, c.k});
    const auto bias = rng.randn(nt::Shape{c.n});
    const nt::GemmEpilogue ep{.bias_col = bias.data(), .relu = true};
    nt::Tensor got(nt::Shape{c.m, c.n});
    const std::int64_t before = runs.value();
    nt::gemm_blocked(c.m, c.k, c.n, nt::GemmView::plain(a.data(), c.k),
                     nt::GemmView::transposed(b.data(), c.k), got.data(), c.n, ep);
    const std::int64_t forks = runs.value() - before;
    if (c.serial || !pooled) {
      EXPECT_EQ(forks, 0) << c.m << "x" << c.k << "x" << c.n;
    } else {
      EXPECT_GT(forks, 0) << c.m << "x" << c.k << "x" << c.n;
    }
    for (nt::index_t i = 0; i < c.m; ++i) {
      nt::Tensor row(nt::Shape{1, c.n});
      nt::gemm_blocked(1, c.k, c.n, nt::GemmView::plain(a.data() + i * c.k, c.k),
                       nt::GemmView::transposed(b.data(), c.k), row.data(), c.n, ep);
      EXPECT_EQ(std::memcmp(row.data(), got.data() + i * c.n, sizeof(float) * c.n), 0)
          << c.m << "x" << c.k << "x" << c.n << " row " << i;
    }
  }
}
