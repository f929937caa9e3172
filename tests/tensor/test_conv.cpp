#include "nodetr/tensor/conv.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/rng.hpp"

namespace nt = nodetr::tensor;

namespace {

// Direct reference convolution for validation.
nt::Tensor naive_conv2d(const nt::Tensor& x, const nt::Tensor& w, const nt::Tensor& b,
                        const nt::Conv2dGeom& g) {
  const auto n = x.dim(0), h = x.dim(2), ww = x.dim(3);
  const auto ho = g.out_extent(h), wo = g.out_extent(ww);
  nt::Tensor out(nt::Shape{n, g.out_channels, ho, wo});
  for (nt::index_t s = 0; s < n; ++s)
    for (nt::index_t oc = 0; oc < g.out_channels; ++oc)
      for (nt::index_t oy = 0; oy < ho; ++oy)
        for (nt::index_t ox = 0; ox < wo; ++ox) {
          double acc = b.empty() ? 0.0 : b[oc];
          for (nt::index_t ic = 0; ic < g.in_channels; ++ic)
            for (nt::index_t ky = 0; ky < g.kernel; ++ky)
              for (nt::index_t kx = 0; kx < g.kernel; ++kx) {
                const auto iy = oy * g.stride + ky - g.pad;
                const auto ix = ox * g.stride + kx - g.pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= ww) continue;
                acc += static_cast<double>(x.at(s, ic, iy, ix)) *
                       w[((oc * g.in_channels + ic) * g.kernel + ky) * g.kernel + kx];
              }
          out.at(s, oc, oy, ox) = static_cast<float>(acc);
        }
  return out;
}

// The (C*K*K, Ho*Wo) column matrix of one (C, H, W) image, written straight
// from the definition: row (c, ky, kx), column (oy, ox) holds the input at
// (oy * stride + ky - pad, ox * stride + kx - pad), or +0 outside it.
nt::Tensor naive_columns(const float* img, nt::index_t h, nt::index_t w, const nt::Conv2dGeom& g) {
  const auto ho = g.out_extent(h), wo = g.out_extent(w), k = g.kernel;
  nt::Tensor col(nt::Shape{g.in_channels * k * k, ho * wo});
  for (nt::index_t c = 0; c < g.in_channels; ++c)
    for (nt::index_t ky = 0; ky < k; ++ky)
      for (nt::index_t kx = 0; kx < k; ++kx)
        for (nt::index_t oy = 0; oy < ho; ++oy)
          for (nt::index_t ox = 0; ox < wo; ++ox) {
            const auto iy = oy * g.stride + ky - g.pad, ix = ox * g.stride + kx - g.pad;
            const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
            col.at((c * k + ky) * k + kx, oy * wo + ox) = in ? img[(c * h + iy) * w + ix] : 0.0f;
          }
  return col;
}

bool bitwise_equal(const float* a, const float* b, nt::index_t n) {
  return std::memcmp(a, b, sizeof(float) * static_cast<std::size_t>(n)) == 0;
}

// Numerical gradient of sum(conv(x)) w.r.t. x[i], central differences.
float numgrad_input(const nt::Tensor& x, const nt::Tensor& w, const nt::Conv2dGeom& g,
                    nt::index_t i) {
  const float eps = 1e-3f;
  nt::Tensor xp = x, xm = x;
  xp[i] += eps;
  xm[i] -= eps;
  const float fp = nt::sum(nt::conv2d(xp, w, {}, g));
  const float fm = nt::sum(nt::conv2d(xm, w, {}, g));
  return (fp - fm) / (2 * eps);
}

}  // namespace

TEST(Conv2d, Im2ColRoundTripIdentityKernel) {
  // A 1x1 kernel stride 1 im2col is exactly the flattened image.
  nt::Conv2dGeom g{.in_channels = 2, .out_channels = 2, .kernel = 1, .stride = 1, .pad = 0};
  nt::Rng rng(1);
  auto img = rng.randn(nt::Shape{2, 4, 4});
  std::vector<float> col(2 * 16);
  nt::im2col(img.data(), 2, 4, 4, g, col.data());
  for (nt::index_t i = 0; i < img.numel(); ++i) EXPECT_FLOAT_EQ(col[static_cast<size_t>(i)], img[i]);
}

// Every block of the column matrix, wherever it starts and ends, holds
// im2col's values: the conv-form GEMM packs its B panels from such blocks.
TEST(Conv2d, Im2colBlockEqualsColumnsOfIm2col) {
  const nt::Conv2dGeom geoms[] = {
      {.in_channels = 3, .out_channels = 1, .kernel = 3, .stride = 2, .pad = 1},
      {.in_channels = 2, .out_channels = 1, .kernel = 3, .stride = 1, .pad = 0},
      {.in_channels = 2, .out_channels = 1, .kernel = 5, .stride = 3, .pad = 2},
      {.in_channels = 4, .out_channels = 1, .kernel = 1, .stride = 2, .pad = 0},
  };
  nt::Rng rng(10);
  for (const auto& g : geoms) {
    const nt::index_t h = 11, w = 7;
    const auto img = rng.randn(nt::Shape{g.in_channels, h, w});
    const auto col = naive_columns(img.data(), h, w, g);
    const nt::index_t rows = col.dim(0), cols = col.dim(1);
    std::vector<float> full(static_cast<std::size_t>(rows * cols));
    nt::im2col(img.data(), g.in_channels, h, w, g, full.data());
    EXPECT_TRUE(bitwise_equal(full.data(), col.data(), rows * cols)) << "kernel " << g.kernel;
    for (nt::index_t row0 : {nt::index_t{0}, nt::index_t{1}, rows / 2, rows - 1})
      for (nt::index_t col0 : {nt::index_t{0}, nt::index_t{1}, cols / 2 + 1, cols - 1}) {
        const nt::index_t nrows = std::min<nt::index_t>(rows - row0, 7);
        const nt::index_t ncols = std::min<nt::index_t>(cols - col0, 13);
        const nt::index_t ld = ncols + 2;
        std::vector<float> block(static_cast<std::size_t>(nrows * ld), -1.0f);
        nt::im2col_block(img.data(), h, w, g, row0, nrows, col0, ncols, block.data(), ld);
        for (nt::index_t r = 0; r < nrows; ++r) {
          EXPECT_TRUE(bitwise_equal(&block[static_cast<std::size_t>(r * ld)],
                                    col.data() + (row0 + r) * cols + col0, ncols))
              << "kernel " << g.kernel << " block at (" << row0 << ", " << col0 << ") row " << r;
          EXPECT_EQ(block[static_cast<std::size_t>(r * ld + ncols)], -1.0f);  // past the block
        }
      }
  }
}

TEST(Conv2d, MatchesNaiveStride1Pad1) {
  nt::Conv2dGeom g{.in_channels = 3, .out_channels = 4, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(2);
  auto x = rng.randn(nt::Shape{2, 3, 6, 6});
  auto w = rng.randn(nt::Shape{4, 3, 3, 3});
  auto b = rng.randn(nt::Shape{4});
  EXPECT_TRUE(nt::allclose(nt::conv2d(x, w, b, g), naive_conv2d(x, w, b, g), 1e-4f, 1e-4f));
}

TEST(Conv2d, MatchesNaiveStride2) {
  nt::Conv2dGeom g{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 2, .pad = 1};
  nt::Rng rng(3);
  auto x = rng.randn(nt::Shape{1, 2, 7, 7});
  auto w = rng.randn(nt::Shape{3, 2, 3, 3});
  auto out = nt::conv2d(x, w, {}, g);
  EXPECT_EQ(out.shape(), (nt::Shape{1, 3, 4, 4}));
  EXPECT_TRUE(nt::allclose(out, naive_conv2d(x, w, {}, g), 1e-4f, 1e-4f));
}

TEST(Conv2d, OutExtentFormula) {
  nt::Conv2dGeom g{.in_channels = 1, .out_channels = 1, .kernel = 3, .stride = 2, .pad = 1};
  EXPECT_EQ(g.out_extent(96), 48);
  EXPECT_EQ(g.out_extent(7), 4);
}

TEST(Conv2d, BackwardInputMatchesNumerical) {
  nt::Conv2dGeom g{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(4);
  auto x = rng.randn(nt::Shape{1, 2, 4, 4});
  auto w = rng.randn(nt::Shape{2, 2, 3, 3});
  // d sum(y) / dx == conv2d_backward_input(ones).
  auto y = nt::conv2d(x, w, {}, g);
  nt::Tensor gout(y.shape(), 1.0f);
  auto gx = nt::conv2d_backward_input(gout, w, g, 4, 4);
  for (nt::index_t i : {0, 5, 17, 31}) {
    EXPECT_NEAR(gx[i], numgrad_input(x, w, g, i), 1e-2f) << "at flat index " << i;
  }
}

TEST(Conv2d, BackwardParamsMatchesNumerical) {
  nt::Conv2dGeom g{.in_channels = 1, .out_channels = 2, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(5);
  auto x = rng.randn(nt::Shape{1, 1, 4, 4});
  auto w = rng.randn(nt::Shape{2, 1, 3, 3});
  auto y = nt::conv2d(x, w, {}, g);
  nt::Tensor gout(y.shape(), 1.0f);
  nt::Tensor gw(w.shape()), gb(nt::Shape{2});
  nt::conv2d_backward_params(x, gout, g, gw, gb);
  const float eps = 1e-3f;
  for (nt::index_t i : {0, 4, 9, 17}) {
    nt::Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    const float num =
        (nt::sum(nt::conv2d(x, wp, {}, g)) - nt::sum(nt::conv2d(x, wm, {}, g))) / (2 * eps);
    EXPECT_NEAR(gw[i], num, 1e-2f) << "weight index " << i;
  }
  // Bias gradient of sum() is just the output plane size.
  EXPECT_NEAR(gb[0], 16.0f, 1e-3f);
}

TEST(Depthwise, MatchesPerChannelDenseConv) {
  // A depthwise conv equals a dense conv whose cross-channel taps are zero.
  nt::Conv2dGeom g{.in_channels = 3, .out_channels = 3, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(6);
  auto x = rng.randn(nt::Shape{2, 3, 5, 5});
  auto wd = rng.randn(nt::Shape{3, 3, 3});  // (C, K, K)
  nt::Tensor wdense(nt::Shape{3, 3, 3, 3});
  for (nt::index_t c = 0; c < 3; ++c)
    for (nt::index_t ky = 0; ky < 3; ++ky)
      for (nt::index_t kx = 0; kx < 3; ++kx)
        wdense.at(c, c, ky, kx) = wd.at(c, ky, kx);
  auto yd = nt::depthwise_conv2d(x, wd, {}, g);
  auto ydense = nt::conv2d(x, wdense, {}, g);
  EXPECT_TRUE(nt::allclose(yd, ydense, 1e-4f, 1e-4f));
}

TEST(Depthwise, BackwardInputMatchesNumerical) {
  nt::Conv2dGeom g{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(7);
  auto x = rng.randn(nt::Shape{1, 2, 4, 4});
  auto w = rng.randn(nt::Shape{2, 3, 3});
  auto y = nt::depthwise_conv2d(x, w, {}, g);
  nt::Tensor gout(y.shape(), 1.0f);
  auto gx = nt::depthwise_conv2d_backward_input(gout, w, g, 4, 4);
  const float eps = 1e-3f;
  for (nt::index_t i : {0, 7, 21}) {
    nt::Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const float num = (nt::sum(nt::depthwise_conv2d(xp, w, {}, g)) -
                       nt::sum(nt::depthwise_conv2d(xm, w, {}, g))) /
                      (2 * eps);
    EXPECT_NEAR(gx[i], num, 1e-2f);
  }
}

TEST(Depthwise, BackwardParamsMatchesNumerical) {
  nt::Conv2dGeom g{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(8);
  auto x = rng.randn(nt::Shape{1, 2, 4, 4});
  auto w = rng.randn(nt::Shape{2, 3, 3});
  auto y = nt::depthwise_conv2d(x, w, {}, g);
  nt::Tensor gout(y.shape(), 1.0f);
  nt::Tensor gw(w.shape()), gb(nt::Shape{2});
  nt::depthwise_conv2d_backward_params(x, gout, g, gw, gb);
  const float eps = 1e-3f;
  for (nt::index_t i : {0, 8, 12}) {
    nt::Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    const float num = (nt::sum(nt::depthwise_conv2d(x, wp, {}, g)) -
                       nt::sum(nt::depthwise_conv2d(x, wm, {}, g))) /
                      (2 * eps);
    EXPECT_NEAR(gw[i], num, 1e-2f);
  }
}

// Parameterized sweep: forward conv matches naive across geometries.
struct ConvCase {
  int cin, cout, k, stride, pad, h, w;
};

class ConvGeometries : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometries, ForwardMatchesNaive) {
  const auto p = GetParam();
  nt::Conv2dGeom g{.in_channels = p.cin, .out_channels = p.cout, .kernel = p.k,
                   .stride = p.stride, .pad = p.pad};
  nt::Rng rng(99);
  auto x = rng.randn(nt::Shape{1, p.cin, p.h, p.w});
  auto w = rng.randn(nt::Shape{p.cout, p.cin, p.k, p.k});
  EXPECT_TRUE(nt::allclose(nt::conv2d(x, w, {}, g), naive_conv2d(x, w, {}, g), 1e-4f, 1e-4f));
}

// conv2d gathers its GEMM's B panels straight from the planes, and the bits
// are those of the column matrix followed by the GEMM, bias included, at
// batch 1 and 3 (where the samples split across the pool).
TEST_P(ConvGeometries, ForwardBitwiseEqualsColumnsThenGemm) {
  const auto p = GetParam();
  nt::Conv2dGeom g{.in_channels = p.cin, .out_channels = p.cout, .kernel = p.k,
                   .stride = p.stride, .pad = p.pad};
  nt::Rng rng(100);
  const auto w = rng.randn(nt::Shape{p.cout, p.cin, p.k, p.k});
  const auto bias = rng.randn(nt::Shape{p.cout});
  const nt::index_t krows = p.cin * p.k * p.k;
  const nt::index_t plane = g.out_extent(p.h) * g.out_extent(p.w);
  for (const nt::index_t n : {1, 3}) {
    const auto x = rng.randn(nt::Shape{n, p.cin, p.h, p.w});
    const auto got = nt::conv2d(x, w, bias, g);
    nt::Tensor want(got.shape());
    for (nt::index_t s = 0; s < n; ++s) {
      const auto col = naive_columns(x.data() + s * p.cin * p.h * p.w, p.h, p.w, g);
      nt::GemmEpilogue ep;
      ep.bias_row = bias.data();
      nt::gemm_blocked(p.cout, krows, plane, nt::GemmView::plain(w.data(), krows),
                       nt::GemmView::plain(col.data(), plane), want.data() + s * p.cout * plane,
                       plane, ep);
    }
    EXPECT_TRUE(bitwise_equal(got.data(), want.data(), got.numel())) << "batch " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvGeometries,
                         ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5, 5},
                                           ConvCase{2, 4, 3, 1, 1, 6, 6},
                                           ConvCase{3, 2, 3, 2, 1, 9, 9},
                                           ConvCase{4, 4, 5, 1, 2, 8, 8},
                                           ConvCase{2, 3, 3, 2, 0, 8, 10},
                                           ConvCase{1, 8, 7, 2, 3, 12, 12}));

// The paper model's strided convs: the stem 3->64 at 96x96, the downsample
// bodies ds1 64->128 at 24x24 and ds2 128->256 at 12x12 (K = 576 and 1152
// span several KC panels), their 1x1 stride-2 skips, then odd planes and
// pad 0.
INSTANTIATE_TEST_SUITE_P(Paper, ConvGeometries,
                         ::testing::Values(ConvCase{3, 64, 3, 2, 1, 96, 96},
                                           ConvCase{64, 128, 3, 2, 1, 24, 24},
                                           ConvCase{64, 128, 1, 2, 0, 24, 24},
                                           ConvCase{128, 256, 3, 2, 1, 12, 12},
                                           ConvCase{128, 256, 1, 2, 0, 12, 12},
                                           ConvCase{5, 7, 3, 2, 1, 13, 11},
                                           ConvCase{3, 9, 3, 1, 0, 7, 9}));
