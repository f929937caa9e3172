#include "nodetr/fx/qconv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/conv.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/rng.hpp"

namespace fx = nodetr::fx;
namespace nt = nodetr::tensor;

namespace {
const fx::FixedFormat kF{32, 16};
const fx::FixedFormat kP{24, 8};
}  // namespace

TEST(QConv2d, MatchesFloatReference) {
  nt::Conv2dGeom g{.in_channels = 3, .out_channels = 4, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(1);
  auto x = rng.randn(nt::Shape{2, 3, 5, 5});
  auto w = rng.randn(nt::Shape{4, 3, 3, 3});
  auto b = rng.randn(nt::Shape{4});
  auto qy = fx::qconv2d(fx::FixedTensor::from_float(x, kF), fx::FixedTensor::from_float(w, kP),
                        fx::FixedTensor::from_float(b, kP), g, kF);
  auto y = nt::conv2d(x, w, b, g);
  EXPECT_LE(nt::max_abs_diff(qy.to_float(), y), 2e-2f);
}

TEST(QConv2d, ExactForIntegerData) {
  nt::Conv2dGeom g{.in_channels = 1, .out_channels = 1, .kernel = 3, .stride = 1, .pad = 0};
  nt::Tensor x(nt::Shape{1, 1, 3, 3}, 1.0f);
  nt::Tensor w(nt::Shape{1, 1, 3, 3}, 2.0f);
  auto qy = fx::qconv2d(fx::FixedTensor::from_float(x, kF), fx::FixedTensor::from_float(w, kP),
                        {}, g, kF);
  EXPECT_FLOAT_EQ(qy.to_float()[0], 18.0f);
}

TEST(QConv2d, Stride2Geometry) {
  nt::Conv2dGeom g{.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 2, .pad = 1};
  nt::Rng rng(2);
  auto x = rng.randn(nt::Shape{1, 2, 8, 8});
  auto w = rng.randn(nt::Shape{3, 2, 3, 3});
  auto qy = fx::qconv2d(fx::FixedTensor::from_float(x, kF), fx::FixedTensor::from_float(w, kP),
                        {}, g, kF);
  EXPECT_EQ(qy.shape(), (nt::Shape{1, 3, 4, 4}));
  EXPECT_LE(nt::max_abs_diff(qy.to_float(), nt::conv2d(x, w, {}, g)), 2e-2f);
}

TEST(QDepthwise, MatchesFloatReference) {
  nt::Conv2dGeom g{.in_channels = 3, .out_channels = 3, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(3);
  auto x = rng.randn(nt::Shape{1, 3, 5, 5});
  auto w = rng.randn(nt::Shape{3, 3, 3});
  auto qy = fx::qdepthwise_conv2d(fx::FixedTensor::from_float(x, kF),
                                  fx::FixedTensor::from_float(w, kP), g, kF);
  EXPECT_LE(nt::max_abs_diff(qy.to_float(), nt::depthwise_conv2d(x, w, {}, g)), 1e-2f);
}

TEST(QScaleShift, FoldedBatchNorm) {
  nt::Rng rng(4);
  auto x = rng.randn(nt::Shape{1, 2, 3, 3});
  nt::Tensor scale(nt::Shape{2}, std::vector<float>{2.0f, 0.5f});
  nt::Tensor shift(nt::Shape{2}, std::vector<float>{1.0f, -1.0f});
  auto qy = fx::qscale_shift_channels(fx::FixedTensor::from_float(x, kF),
                                      fx::FixedTensor::from_float(scale, kP),
                                      fx::FixedTensor::from_float(shift, kP));
  for (nt::index_t c = 0; c < 2; ++c) {
    for (nt::index_t i = 0; i < 9; ++i) {
      const float want = x[c * 9 + i] * scale[c] + shift[c];
      EXPECT_NEAR(qy.to_float()[c * 9 + i], want, 1e-2f);
    }
  }
}

TEST(QGlobalAvgPool, ExactMeanOfRepresentables) {
  nt::Tensor x(nt::Shape{1, 1, 2, 2}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  auto q = fx::qglobal_avg_pool(fx::FixedTensor::from_float(x, kF));
  EXPECT_EQ(q.shape(), (nt::Shape{1, 1}));
  EXPECT_FLOAT_EQ(q.to_float()[0], 2.5f);
}

TEST(QMaxPool, ExactComparatorSemantics) {
  auto x = nt::Tensor::arange(16).reshape(nt::Shape{1, 1, 4, 4});
  auto q = fx::qmax_pool(fx::FixedTensor::from_float(x, kF), 2, 2, 0);
  auto f = q.to_float();
  EXPECT_FLOAT_EQ(f[0], 5.0f);
  EXPECT_FLOAT_EQ(f[3], 15.0f);
}

TEST(QConvKernels, NarrowFormatsIncreaseError) {
  nt::Conv2dGeom g{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(5);
  auto x = rng.randn(nt::Shape{1, 2, 6, 6});
  auto w = rng.randn(nt::Shape{2, 2, 3, 3});
  auto ref = nt::conv2d(x, w, {}, g);
  float prev = -1.0f;
  for (const auto& scheme : fx::table8_schemes()) {
    auto qy = fx::qconv2d(fx::FixedTensor::from_float(x, scheme.feature),
                          fx::FixedTensor::from_float(w, scheme.param), {}, g, scheme.feature);
    const float err = nt::mean_abs_diff(qy.to_float(), ref);
    EXPECT_GE(err, prev * 0.5f);
    prev = std::max(prev, err);
  }
}

namespace {

/// __int128 reference conv, one output at a time; `depthwise` selects the
/// (C, K, K) weight layout. Bias joins at the product scale as in qconv2d.
fx::FixedTensor wide_conv_ref(const fx::FixedTensor& x, const fx::FixedTensor& w,
                              const fx::FixedTensor& bias, const nt::Conv2dGeom& g,
                              bool depthwise, fx::FixedFormat out) {
  const nt::index_t n = x.shape().dim(0), c_in = x.shape().dim(1), h = x.shape().dim(2),
                    wd = x.shape().dim(3);
  const nt::index_t c_out = depthwise ? c_in : g.out_channels;
  const nt::index_t ho = g.out_extent(h), wo = g.out_extent(wd);
  const int prod_frac = x.format().frac_bits() + w.format().frac_bits();
  fx::FixedTensor y(nt::Shape{n, c_out, ho, wo}, out);
  for (nt::index_t s = 0; s < n; ++s) {
    for (nt::index_t oc = 0; oc < c_out; ++oc) {
      for (nt::index_t oy = 0; oy < ho; ++oy) {
        for (nt::index_t ox = 0; ox < wo; ++ox) {
          __int128 acc = bias.empty() ? 0
                                      : fx::convert_raw(bias[oc], bias.format(),
                                                        fx::FixedFormat{62, 62 - prod_frac});
          const nt::index_t ic0 = depthwise ? oc : 0, ic1 = depthwise ? oc + 1 : c_in;
          for (nt::index_t ic = ic0; ic < ic1; ++ic) {
            for (nt::index_t ky = 0; ky < g.kernel; ++ky) {
              for (nt::index_t kx = 0; kx < g.kernel; ++kx) {
                const nt::index_t iy = oy * g.stride + ky - g.pad, ix = ox * g.stride + kx - g.pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                const nt::index_t wi = depthwise ? (oc * g.kernel + ky) * g.kernel + kx
                                                 : ((oc * c_in + ic) * g.kernel + ky) * g.kernel + kx;
                acc += static_cast<__int128>(x[((s * c_in + ic) * h + iy) * wd + ix]) * w[wi];
              }
            }
          }
          const int shift = prod_frac - out.frac_bits();
          if (shift > 0) {
            const __int128 half = static_cast<__int128>(1) << (shift - 1);
            acc = (acc + (acc >= 0 ? half : half - 1)) >> shift;
          } else if (shift < 0) {
            acc <<= -shift;
          }
          acc = std::min<__int128>(std::max<__int128>(acc, out.raw_min()), out.raw_max());
          y[((s * c_out + oc) * ho + oy) * wo + ox] = static_cast<std::int64_t>(acc);
        }
      }
    }
  }
  return y;
}

/// Random codes spanning the whole format, saturated ends included.
fx::FixedTensor random_codes(nt::Shape shape, fx::FixedFormat f, nt::Rng& rng) {
  fx::FixedTensor t(std::move(shape), f);
  const auto span = static_cast<float>(f.max_value());
  for (nt::index_t i = 0; i < t.numel(); ++i) {
    t[i] = fx::quantize(rng.uniform(-1.25f * span, 1.25f * span), f);
  }
  return t;
}

void expect_bitwise(const fx::FixedTensor& got, const fx::FixedTensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (nt::index_t i = 0; i < got.numel(); ++i) ASSERT_EQ(got[i], want[i]) << what << " i=" << i;
}

std::int64_t wide_fallbacks() {
  return nodetr::obs::Registry::instance().counter("fx.accum.wide_fallbacks").value();
}

}  // namespace

// Dense and depthwise convs accumulate in int64 for every Table VIII scheme
// (the proof holds at full-range operands) and match the __int128 reference.
TEST(QConvExact, Int64PathMatchesWideReferenceOnAllSchemes) {
  nt::Rng rng(21);
  const nt::Conv2dGeom dense{.in_channels = 5, .out_channels = 3, .kernel = 3, .stride = 2,
                             .pad = 1};
  const nt::Conv2dGeom dw{.in_channels = 4, .out_channels = 4, .kernel = 3, .stride = 1,
                          .pad = 1};
  const std::int64_t before = wide_fallbacks();
  for (const auto& s : fx::table8_schemes()) {
    const auto x = random_codes(nt::Shape{2, 5, 7, 6}, s.feature, rng);
    const auto w = random_codes(nt::Shape{3, 5, 3, 3}, s.param, rng);
    const auto b = random_codes(nt::Shape{3}, s.param, rng);
    expect_bitwise(fx::qconv2d(x, w, b, dense, s.feature),
                   wide_conv_ref(x, w, b, dense, false, s.feature), "dense " + s.to_string());
    const auto xd = random_codes(nt::Shape{1, 4, 5, 5}, s.feature, rng);
    const auto wd = random_codes(nt::Shape{4, 3, 3}, s.param, rng);
    expect_bitwise(fx::qdepthwise_conv2d(xd, wd, dw, s.feature),
                   wide_conv_ref(xd, wd, {}, dw, true, s.feature), "depthwise " + s.to_string());
  }
  EXPECT_EQ(wide_fallbacks(), before);
}

// 48-bit codes make single products reach 2^94, past any int64 bound: both
// convs must fall back to __int128 and still match the reference.
TEST(QConvExact, OverBoundFallsBackWide) {
  const fx::FixedFormat huge{48, 16};
  nt::Rng rng(22);
  const nt::Conv2dGeom g{.in_channels = 2, .out_channels = 2, .kernel = 3, .stride = 1, .pad = 1};
  const auto x = random_codes(nt::Shape{1, 2, 4, 4}, huge, rng);
  const auto w = random_codes(nt::Shape{2, 2, 3, 3}, huge, rng);
  const auto wd = random_codes(nt::Shape{2, 3, 3}, huge, rng);
  const std::int64_t before = wide_fallbacks();
  expect_bitwise(fx::qconv2d(x, w, {}, g, huge), wide_conv_ref(x, w, {}, g, false, huge),
                 "dense");
  expect_bitwise(fx::qdepthwise_conv2d(x, wd, g, huge), wide_conv_ref(x, wd, {}, g, true, huge),
                 "depthwise");
  EXPECT_EQ(wide_fallbacks() - before, 2);
}
