// Bitwise checks of the float conv forward kernels against references that
// keep the earlier formulation: a scalar depthwise kernel (one 9-tap dot per
// output), the depthwise-separable pair run as two convs, and the 1x1 conv
// through im2col.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "nodetr/tensor/conv.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/rng.hpp"

namespace nt = nodetr::tensor;
using nt::index_t;
using nt::Tensor;

namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// ---- Reference: the scalar depthwise forward, verbatim ---------------------

namespace ref {

using nt::Conv2dGeom;
using nt::parallel_for;
using nt::Shape;

void check_input(const Tensor& x, const Conv2dGeom& g, const char* who) {
  if (x.rank() != 4) throw std::invalid_argument(std::string(who) + ": input rank must be 4");
  if (x.dim(1) != g.in_channels) {
    throw std::invalid_argument(std::string(who) + ": channel mismatch");
  }
}

constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// First output index whose receptive field at kernel offset `kk` starts
/// inside [0, extent), and one past the last.
struct ValidRange {
  index_t lo, hi;
};
ValidRange valid_out_range(index_t extent, index_t out, index_t stride, index_t pad,
                           index_t kk) {
  // in = out * stride + kk - pad must land in [0, extent)
  const index_t lo = std::min(out, std::max<index_t>(0, ceil_div(pad - kk, stride)));
  const index_t hi = std::clamp<index_t>(ceil_div(extent - kk + pad, stride), lo, out);
  return {lo, hi};
}

/// Interior output rows/cols where the whole K x K window is in bounds: the
/// intersection of the valid ranges of the first and last kernel offsets.
ValidRange interior_range(index_t extent, index_t out, index_t stride, index_t pad,
                          index_t kernel) {
  const ValidRange first = valid_out_range(extent, out, stride, pad, 0);
  const ValidRange last = valid_out_range(extent, out, stride, pad, kernel - 1);
  const index_t lo = std::max(first.lo, last.lo);
  return {lo, std::max(lo, std::min(first.hi, last.hi))};
}

/// One fully-in-bounds K x K correlation at (iy, ix) = window origin.
template <int K>
float dw_dot(const float* src, index_t w, const float* ker) {
  float acc = 0.0f;
  for (int ky = 0; ky < K; ++ky) {
    const float* row = src + ky * w;
    for (int kx = 0; kx < K; ++kx) acc += ker[ky * K + kx] * row[kx];
  }
  return acc;
}

float dw_dot_n(const float* src, index_t w, const float* ker, index_t kernel) {
  float acc = 0.0f;
  for (index_t ky = 0; ky < kernel; ++ky) {
    const float* row = src + ky * w;
    for (index_t kx = 0; kx < kernel; ++kx) acc += ker[ky * kernel + kx] * row[kx];
  }
  return acc;
}

Tensor depthwise_conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                        const Conv2dGeom& g) {
  check_input(x, g, "depthwise_conv2d");
  const index_t n = x.dim(0), c_ = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const ValidRange iy_r = interior_range(h, ho, g.stride, g.pad, g.kernel);
  const ValidRange ix_r = interior_range(w, wo, g.stride, g.pad, g.kernel);
  Tensor out(Shape{n, c_, ho, wo});
  parallel_for(0, n * c_, [&](index_t lo, index_t hi) {
    for (index_t sc = lo; sc < hi; ++sc) {
      const index_t c = sc % c_;
      const float* src = x.data() + sc * h * w;
      const float* ker = weight.data() + c * g.kernel * g.kernel;
      const float b = bias.empty() ? 0.0f : bias[c];
      float* dst = out.data() + sc * ho * wo;
      auto edge_cell = [&](index_t oy, index_t ox) {
        float acc = b;
        for (index_t ky = 0; ky < g.kernel; ++ky) {
          const index_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < g.kernel; ++kx) {
            const index_t ix = ox * g.stride + kx - g.pad;
            if (ix >= 0 && ix < w) acc += ker[ky * g.kernel + kx] * src[iy * w + ix];
          }
        }
        dst[oy * wo + ox] = acc;
      };
      for (index_t oy = 0; oy < ho; ++oy) {
        const bool row_interior = oy >= iy_r.lo && oy < iy_r.hi;
        if (!row_interior) {
          for (index_t ox = 0; ox < wo; ++ox) edge_cell(oy, ox);
          continue;
        }
        for (index_t ox = 0; ox < ix_r.lo; ++ox) edge_cell(oy, ox);
        // Interior fast path: the whole window is in bounds, no checks.
        const float* origin = src + (oy * g.stride - g.pad) * w - g.pad;
        float* drow = dst + oy * wo;
        if (g.kernel == 3) {
          for (index_t ox = ix_r.lo; ox < ix_r.hi; ++ox) {
            drow[ox] = b + dw_dot<3>(origin + ox * g.stride, w, ker);
          }
        } else {
          for (index_t ox = ix_r.lo; ox < ix_r.hi; ++ox) {
            drow[ox] = b + dw_dot_n(origin + ox * g.stride, w, ker, g.kernel);
          }
        }
        for (index_t ox = ix_r.hi; ox < wo; ++ox) edge_cell(oy, ox);
      }
    }
  }, /*grain=*/1);
  return out;
}

}  // namespace ref

/// The 1x1 conv through im2col columns, as conv2d computed every geometry.
Tensor im2col_conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                     const nt::Conv2dGeom& g) {
  const index_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const index_t krows = g.in_channels * g.kernel * g.kernel;
  Tensor out(nt::Shape{n, g.out_channels, ho, wo});
  Tensor col(nt::Shape{krows, ho * wo});
  nt::GemmEpilogue ep;
  ep.bias_row = bias.empty() ? nullptr : bias.data();
  for (index_t s = 0; s < n; ++s) {
    nt::im2col(x.data() + s * g.in_channels * h * w, g.in_channels, h, w, g, col.data());
    nt::gemm_blocked(g.out_channels, krows, ho * wo, nt::GemmView::plain(weight.data(), krows),
                     nt::GemmView::plain(col.data(), ho * wo),
                     out.data() + s * g.out_channels * ho * wo, ho * wo, ep);
  }
  return out;
}

/// Gaussian input with signed zeros and exact zeros sprinkled in, so sign
/// handling of the zero-started sums shows in the bits.
Tensor test_input(nt::Rng& rng, nt::Shape shape) {
  Tensor x = rng.randn(std::move(shape));
  for (index_t i = 0; i < x.numel(); i += 7) x[i] = (i / 7) % 2 == 0 ? -0.0f : 0.0f;
  return x;
}

}  // namespace

// Every geometry the kernel takes: K in {1, 3, 5}, stride {1, 2}, pad
// {0, 1, 2}, with and without bias, widths 1..19 (every vector tail).
TEST(DepthwiseKernel, BitwiseEqualToScalarReference) {
  nt::Rng rng(1701);
  int cases = 0;
  for (index_t k : {1, 3, 5}) {
    for (index_t stride : {1, 2}) {
      for (index_t pad : {0, 1, 2}) {
        for (bool with_bias : {false, true}) {
          for (index_t h : {3, 8}) {
            for (index_t w = 1; w <= 19; ++w) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const nt::Conv2dGeom g{.in_channels = 3, .out_channels = 3, .kernel = k,
                                     .stride = stride, .pad = pad};
              const Tensor x = test_input(rng, nt::Shape{2, 3, h, w});
              const Tensor wt = rng.randn(nt::Shape{3, k, k});
              const Tensor b = with_bias ? rng.randn(nt::Shape{3}) : Tensor();
              const Tensor want = ref::depthwise_conv2d(x, wt, b, g);
              EXPECT_TRUE(bitwise_equal(nt::depthwise_conv2d(x, wt, b, g), want))
                  << "k" << k << " s" << stride << " p" << pad << " bias " << with_bias << " "
                  << h << "x" << w;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 400);
}

// The dsODENet shapes: 64x24x24 and 128x12x12, 3x3 stride 1 pad 1.
TEST(DepthwiseKernel, BitwiseEqualToScalarReferenceAtPaperShapes) {
  nt::Rng rng(1702);
  for (auto [c, hw] : {std::pair<index_t, index_t>{64, 24}, {128, 12}}) {
    const nt::Conv2dGeom g{.in_channels = c, .out_channels = c, .kernel = 3, .stride = 1,
                           .pad = 1};
    const Tensor x = test_input(rng, nt::Shape{2, c, hw, hw});
    const Tensor wt = rng.randn(nt::Shape{c, 3, 3});
    EXPECT_TRUE(bitwise_equal(nt::depthwise_conv2d(x, wt, {}, g),
                              ref::depthwise_conv2d(x, wt, {}, g)))
        << c << "x" << hw;
  }
}

// The 3x3 stride-1 pad-1 planes through their zero-framed copy: heights
// that end the row pairs on an odd row, every width whose tail overlaps the
// previous 8 columns, with and without bias (a non-zero bias takes the
// generic path), standalone and as the DSC's `mid` at batch 1 (planes across
// the pool) and batch 3 (samples across the pool).
TEST(DepthwiseKernel, PaddedPlaneBitwiseAcrossRowPairsAndTails) {
  nt::Rng rng(1705);
  const nt::Conv2dGeom g{.in_channels = 3, .out_channels = 3, .kernel = 3, .stride = 1,
                         .pad = 1};
  for (index_t h : {1, 2, 3, 5, 8}) {
    for (index_t w = 8; w <= 19; ++w) {
      const Tensor wt = rng.randn(nt::Shape{3, 3, 3});
      const Tensor pw_w = rng.randn(nt::Shape{2, 3, 1, 1});
      for (index_t batch : {1, 3}) {
        const std::string label = std::to_string(h) + "x" + std::to_string(w) + " batch " +
                                  std::to_string(batch);
        const Tensor x = test_input(rng, nt::Shape{batch, 3, h, w});
        const Tensor want = ref::depthwise_conv2d(x, wt, {}, g);
        EXPECT_TRUE(bitwise_equal(nt::depthwise_conv2d(x, wt, {}, g), want)) << label;
        const Tensor b = rng.randn(nt::Shape{3});
        EXPECT_TRUE(bitwise_equal(nt::depthwise_conv2d(x, wt, b, g),
                                  ref::depthwise_conv2d(x, wt, b, g)))
            << label << " bias";
        Tensor mid;
        (void)nt::depthwise_separable_conv2d(x, wt, pw_w, g, &mid);
        EXPECT_TRUE(bitwise_equal(mid, want)) << label << " mid";
      }
    }
  }
}

// Planes the zero-framed copy would get wrong take the generic path: a
// +inf or NaN tap (its padding products are NaN, where the edge cells skip
// them) and a -0 bias (an edge cell of -0 products stays -0 from a -0
// start). The -0-bias plane's input is all -0 under positive taps, so its
// edge cells are -0 and its interior cells +0.
TEST(DepthwiseKernel, NonFiniteTapsAndNegativeZeroBiasBitwise) {
  nt::Rng rng(1706);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const nt::Conv2dGeom g{.in_channels = 3, .out_channels = 3, .kernel = 3, .stride = 1,
                         .pad = 1};
  for (index_t h : {1, 2, 5}) {
    for (index_t w : {3, 8, 13}) {
      for (int tap : {0, 4, 8}) {
        Tensor x = test_input(rng, nt::Shape{2, 3, h, w});
        Tensor wt = rng.randn(nt::Shape{3, 3, 3});
        wt[tap] = inf;
        wt[9 + tap] = nan;
        for (index_t k = 18; k < 27; ++k) wt[k] = std::abs(wt[k]) + 0.5f;
        for (index_t s = 0; s < 2; ++s) std::fill_n(x.data() + (s * 3 + 2) * h * w, h * w, -0.0f);
        Tensor b(nt::Shape{3});
        b[2] = -0.0f;
        const std::string label =
            std::to_string(h) + "x" + std::to_string(w) + " tap " + std::to_string(tap);
        EXPECT_TRUE(bitwise_equal(nt::depthwise_conv2d(x, wt, b, g),
                                  ref::depthwise_conv2d(x, wt, b, g)))
            << label;
        // The DSC's depthwise has a +0 bias: the +inf and NaN planes.
        Tensor mid;
        (void)nt::depthwise_separable_conv2d(x, wt, Tensor(nt::Shape{1, 3, 1, 1}), g, &mid);
        EXPECT_TRUE(bitwise_equal(mid, ref::depthwise_conv2d(x, wt, {}, g))) << label << " mid";
      }
    }
  }
}

// The fused depthwise-separable forward equals the depthwise conv followed
// by the 1x1 conv through im2col, and its `mid` equals the depthwise output,
// at batch 1 (planes across the pool) and above (samples across the pool).
TEST(DepthwiseSeparableConv2d, BitwiseEqualToDepthwiseThenPointwise) {
  nt::Rng rng(1703);
  struct Case {
    index_t batch, cin, cout, h, w, stride;
  };
  for (const Case& t : {Case{1, 64, 64, 24, 24, 1}, Case{8, 64, 64, 24, 24, 1},
                        Case{1, 128, 128, 12, 12, 1}, Case{3, 128, 128, 12, 12, 1},
                        Case{2, 5, 7, 9, 11, 1}, Case{2, 6, 4, 9, 10, 2}}) {
    const nt::Conv2dGeom dw{.in_channels = t.cin, .out_channels = t.cin, .kernel = 3,
                            .stride = t.stride, .pad = 1};
    const nt::Conv2dGeom pw{.in_channels = t.cin, .out_channels = t.cout, .kernel = 1,
                            .stride = 1, .pad = 0};
    const Tensor x = test_input(rng, nt::Shape{t.batch, t.cin, t.h, t.w});
    const Tensor dw_w = rng.randn(nt::Shape{t.cin, 3, 3});
    const Tensor pw_w = rng.randn(nt::Shape{t.cout, t.cin, 1, 1});
    const Tensor want_mid = ref::depthwise_conv2d(x, dw_w, {}, dw);
    const Tensor want = im2col_conv2d(want_mid, pw_w, {}, pw);
    const std::string label = "batch " + std::to_string(t.batch) + " " +
                              std::to_string(t.cin) + "->" + std::to_string(t.cout) + " s" +
                              std::to_string(t.stride);
    EXPECT_TRUE(bitwise_equal(nt::depthwise_separable_conv2d(x, dw_w, pw_w, dw), want))
        << label;
    Tensor mid;
    EXPECT_TRUE(bitwise_equal(nt::depthwise_separable_conv2d(x, dw_w, pw_w, dw, &mid), want))
        << label;
    EXPECT_TRUE(bitwise_equal(mid, want_mid)) << label;
  }
}

TEST(DepthwiseSeparableConv2d, RejectsChannelMismatch) {
  const nt::Conv2dGeom dw{.in_channels = 4, .out_channels = 4, .kernel = 3, .stride = 1,
                          .pad = 1};
  EXPECT_THROW((void)nt::depthwise_separable_conv2d(Tensor(nt::Shape{1, 3, 5, 5}),
                                                    Tensor(nt::Shape{4, 3, 3}),
                                                    Tensor(nt::Shape{4, 4, 1, 1}), dw),
               std::invalid_argument);
}

// A 1x1 stride-1 unpadded conv reads the input plane in place of im2col
// columns; the bits are those of the im2col path, with and without bias.
TEST(Conv2dPointwise, BitwiseEqualToIm2colPath) {
  nt::Rng rng(1704);
  for (index_t batch : {1, 3}) {
    for (bool with_bias : {false, true}) {
      for (auto [cin, cout, hw] : {std::tuple<index_t, index_t, index_t>{256, 64, 6},
                                   {64, 256, 6}, {5, 3, 7}}) {
        const nt::Conv2dGeom g{.in_channels = cin, .out_channels = cout, .kernel = 1,
                               .stride = 1, .pad = 0};
        const Tensor x = test_input(rng, nt::Shape{batch, cin, hw, hw});
        const Tensor wt = rng.randn(nt::Shape{cout, cin, 1, 1});
        const Tensor b = with_bias ? rng.randn(nt::Shape{cout}) : Tensor();
        EXPECT_TRUE(bitwise_equal(nt::conv2d(x, wt, b, g), im2col_conv2d(x, wt, b, g)))
            << "batch " << batch << " " << cin << "->" << cout << " bias " << with_bias;
      }
    }
  }
}
