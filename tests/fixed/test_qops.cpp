#include "nodetr/fx/qops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/rng.hpp"

namespace fx = nodetr::fx;
namespace nt = nodetr::tensor;

namespace {
const fx::FixedFormat kF32{32, 16};
const fx::FixedFormat kP24{24, 8};
}  // namespace

TEST(FixedTensor, FromFloatToFloatRoundTrip) {
  nt::Rng rng(1);
  auto t = rng.randn(nt::Shape{4, 4});
  auto q = fx::FixedTensor::from_float(t, kF32);
  EXPECT_EQ(q.shape(), t.shape());
  // Error bounded by half an LSB of 2^-16.
  EXPECT_LE(nt::max_abs_diff(q.to_float(), t), 0.5f / 65536.0f + 1e-9f);
}

TEST(FixedTensor, StorageBits) {
  fx::FixedTensor q(nt::Shape{10, 10}, kP24);
  EXPECT_EQ(q.storage_bits(), 100 * 24);
}

TEST(FixedTensor, ConvertedChangesFormat) {
  nt::Rng rng(2);
  auto t = rng.randn(nt::Shape{8});
  auto q = fx::FixedTensor::from_float(t, kF32);
  auto n = q.converted(fx::FixedFormat{16, 8});
  EXPECT_EQ(n.format().total_bits, 16);
  // 16(8): resolution 1/256; error bound one LSB (two roundings).
  EXPECT_LE(nt::max_abs_diff(n.to_float(), t), 1.0f / 256.0f);
}

TEST(QMatmul, MatchesFloatReferenceWithinQuantError) {
  nt::Rng rng(3);
  auto a = rng.randn(nt::Shape{6, 10});
  auto b = rng.randn(nt::Shape{10, 5});
  auto qa = fx::FixedTensor::from_float(a, kF32);
  auto qb = fx::FixedTensor::from_float(b, kP24);
  auto qc = fx::qmatmul(qa, qb, kF32);
  auto c = nt::matmul(a, b);
  // With 16 fractional bits on both sides the product error is tiny.
  EXPECT_LE(nt::max_abs_diff(qc.to_float(), c), 1e-2f);
}

TEST(QMatmul, ExactForIntegerValues) {
  // Integer-valued inputs are exactly representable: fixed == float.
  nt::Tensor a(nt::Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  nt::Tensor b(nt::Shape{2, 2}, std::vector<float>{5, 6, 7, 8});
  auto qc = fx::qmatmul(fx::FixedTensor::from_float(a, kF32),
                        fx::FixedTensor::from_float(b, kP24), kF32);
  auto c = qc.to_float();
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(QMatmul, SaturatesOnOverflow) {
  // 8(4) output: max ~7.94. 3*3=9 saturates.
  fx::FixedFormat small{8, 4};
  nt::Tensor a(nt::Shape{1, 1}, 3.0f);
  nt::Tensor b(nt::Shape{1, 1}, 3.0f);
  auto qc = fx::qmatmul(fx::FixedTensor::from_float(a, small),
                        fx::FixedTensor::from_float(b, small), small);
  EXPECT_EQ(qc[0], small.raw_max());
}

TEST(QMatmulNT, MatchesQMatmulOnTransposedOperand) {
  nt::Rng rng(4);
  auto a = rng.randn(nt::Shape{5, 7});
  auto b = rng.randn(nt::Shape{6, 7});
  auto qa = fx::FixedTensor::from_float(a, kF32);
  auto qb = fx::FixedTensor::from_float(b, kF32);
  auto qbt = fx::FixedTensor::from_float(b.transposed(), kF32);
  auto c1 = fx::qmatmul_nt(qa, qb, kF32);
  auto c2 = fx::qmatmul(qa, qbt, kF32);
  for (nt::index_t i = 0; i < c1.numel(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

TEST(QAdd, ExactAndSaturating) {
  fx::FixedFormat small{8, 4};
  nt::Tensor a(nt::Shape{2}, std::vector<float>{1.0f, 6.0f});
  nt::Tensor b(nt::Shape{2}, std::vector<float>{2.5f, 6.0f});
  auto c = fx::qadd(fx::FixedTensor::from_float(a, small), fx::FixedTensor::from_float(b, small));
  EXPECT_FLOAT_EQ(c.to_float()[0], 3.5f);
  EXPECT_EQ(c[1], small.raw_max());  // 12 > 7.94 saturates
}

TEST(QAdd, FormatMismatchThrows) {
  fx::FixedTensor a(nt::Shape{2}, kF32), b(nt::Shape{2}, kP24);
  EXPECT_THROW(fx::qadd(a, b), std::invalid_argument);
}

TEST(QRelu, ClampsNegatives) {
  nt::Tensor a(nt::Shape{3}, std::vector<float>{-1.5f, 0.0f, 2.25f});
  auto r = fx::qrelu(fx::FixedTensor::from_float(a, kF32));
  auto f = r.to_float();
  EXPECT_FLOAT_EQ(f[0], 0.0f);
  EXPECT_FLOAT_EQ(f[1], 0.0f);
  EXPECT_FLOAT_EQ(f[2], 2.25f);
}

TEST(QScale, ApproximatesFloatScaling) {
  nt::Rng rng(5);
  auto a = rng.randn(nt::Shape{16});
  const float s = 1.0f / std::sqrt(8.0f);
  auto qs = fx::qscale(fx::FixedTensor::from_float(a, kF32), s);
  EXPECT_LE(nt::max_abs_diff(qs.to_float(), a * s), 1e-3f);
}

TEST(QLayerNorm, NormalizesRows) {
  nt::Rng rng(6);
  auto x = rng.randn(nt::Shape{4, 32}, 3.0f, 2.0f);
  auto gamma = nt::Tensor::ones(nt::Shape{32});
  auto beta = nt::Tensor::zeros(nt::Shape{32});
  auto qy = fx::qlayernorm_rows(fx::FixedTensor::from_float(x, kF32),
                                fx::FixedTensor::from_float(gamma, kP24),
                                fx::FixedTensor::from_float(beta, kP24));
  auto y = qy.to_float();
  for (nt::index_t r = 0; r < 4; ++r) {
    auto row = y.slice0(r, r + 1);
    EXPECT_NEAR(nt::mean(row), 0.0f, 1e-2f);
    EXPECT_NEAR(nt::variance(row), 1.0f, 5e-2f);
  }
}

namespace {

/// qlayernorm_rows' arithmetic one element at a time, as the portable form
/// does it: exact __int128 row sums, then per element
/// ((x - mean) * inv_std) * g + b in double, rounded to float, quantized.
/// `reassociate` computes (x - mean) * (inv_std * g) instead, an order the
/// kernels must not use.
std::vector<std::int64_t> layernorm_ref(const fx::FixedTensor& x, const fx::FixedTensor& gamma,
                                        const fx::FixedTensor& beta, bool reassociate = false) {
  const nt::index_t rows = x.shape().dim(0), cols = x.shape().dim(1);
  const double res = x.format().resolution(), gres = gamma.format().resolution();
  const double n = static_cast<double>(cols);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows * cols));
  for (nt::index_t r = 0; r < rows; ++r) {
    const std::int64_t* in = x.raw() + r * cols;
    __int128 s = 0, s2 = 0;
    for (nt::index_t c = 0; c < cols; ++c) {
      s += in[c];
      s2 += static_cast<__int128>(in[c]) * in[c];
    }
    const double mean = static_cast<double>(s) / n * res;
    const double ex2 = static_cast<double>(s2) / n * res * res;
    const double var = std::max(ex2 - mean * mean, 0.0);
    const double inv_std = 1.0 / std::sqrt(var + fx::kLayerNormEps);
    for (nt::index_t c = 0; c < cols; ++c) {
      const double d = static_cast<double>(in[c]) * res - mean;
      const double g = static_cast<double>(gamma[c]) * gres;
      const double b = static_cast<double>(beta[c]) * gres;
      const double y = reassociate ? d * (inv_std * g) + b : d * inv_std * g + b;
      out[static_cast<std::size_t>(r * cols + c)] = fx::quantize(static_cast<float>(y), x.format());
    }
  }
  return out;
}

std::vector<std::int64_t> codes(const fx::FixedTensor& t) {
  return {t.raw(), t.raw() + t.numel()};
}

}  // namespace

// The kernels use the host's first form (AVX2 where the CPU has it), so this
// holds the vector row to the portable arithmetic code for code: random rows
// of several scales, random gains and biases, every Table VIII feature
// format, a finer 32(4), a width off the vector lanes, and a 40-bit format
// that takes the scalar row.
TEST(QLayerNorm, MatchesPortableArithmeticBitwise) {
  nt::Rng rng(61);
  std::vector<fx::QuantizationScheme> schemes = fx::table8_schemes();
  schemes.push_back({{32, 4}, kP24});
  schemes.push_back({{40, 20}, kP24});
  for (const auto& scheme : schemes) {
    for (const nt::index_t cols : {nt::index_t{64}, nt::index_t{61}}) {
      SCOPED_TRACE(scheme.to_string() + " cols " + std::to_string(cols));
      const auto gamma = fx::FixedTensor::from_float(rng.randn(nt::Shape{cols}, 1.0f, 2.0f),
                                                     scheme.param);
      const auto beta = fx::FixedTensor::from_float(rng.randn(nt::Shape{cols}, 0.0f, 2.0f),
                                                    scheme.param);
      fx::FixedTensor x(nt::Shape{256, cols}, scheme.feature);
      for (nt::index_t r = 0; r < 256; ++r) {
        const float scale = std::exp(rng.normal(0.0f, 1.5f));
        const float shift = rng.normal(0.0f, 1.0f);
        for (nt::index_t c = 0; c < cols; ++c) {
          x[r * cols + c] = fx::quantize(rng.normal(shift, scale), scheme.feature);
        }
      }
      EXPECT_EQ(codes(fx::qlayernorm_rows(x, gamma, beta)), layernorm_ref(x, gamma, beta));
    }
  }
}

// Random rows almost never separate two orders of the double product: the
// float rounding hides a last-bit difference. These gains and biases were
// searched for one fixed 32(4) row so that the bias cancels most of the
// product, and at each of their columns the two orders give different codes.
// Columns 64 and 65 are past the last whole vector, so the scalar row
// computes them.
TEST(QLayerNorm, KeepsTheProductOrderOnWitnessRow) {
  const fx::FixedFormat ff{32, 4};
  constexpr nt::index_t kCols = 66;
  fx::FixedTensor x(nt::Shape{1, kCols}, ff);
  for (nt::index_t c = 0; c < kCols; ++c) x[c] = ((c * 7919) % 1001 - 500) * 262144;
  fx::FixedTensor gamma(nt::Shape{kCols}, kP24), beta(nt::Shape{kCols}, kP24);
  for (nt::index_t c = 0; c < kCols; ++c) gamma[c] = 65536;  // 1.0
  struct Witness {
    nt::index_t col;
    std::int64_t g, b;
  };
  const Witness witnesses[] = {
      {1, 4240980, -6023713}, {19, 4034877, 2728253},  {21, 4233620, 5491437},
      {25, 4350246, -4145409}, {64, 4841011, 3290222}, {65, 5546627, 5491844},
  };
  for (const auto& w : witnesses) {
    gamma[w.col] = w.g;
    beta[w.col] = w.b;
  }
  const auto ref = layernorm_ref(x, gamma, beta);
  const auto other = layernorm_ref(x, gamma, beta, /*reassociate=*/true);
  for (const auto& w : witnesses) {
    ASSERT_NE(ref[static_cast<std::size_t>(w.col)], other[static_cast<std::size_t>(w.col)])
        << "column " << w.col << " no longer separates the two orders";
  }
  EXPECT_EQ(codes(fx::qlayernorm_rows(x, gamma, beta)), ref);
}

TEST(QLinear, MatchesFloatLinear) {
  nt::Rng rng(7);
  auto x = rng.randn(nt::Shape{3, 8});
  auto w = rng.randn(nt::Shape{4, 8});  // out x in
  auto b = rng.randn(nt::Shape{4});
  auto qy = fx::qlinear(fx::FixedTensor::from_float(x, kF32), fx::FixedTensor::from_float(w, kP24),
                        fx::FixedTensor::from_float(b, kP24), kF32);
  auto y = nt::matmul_nt(x, w);
  for (nt::index_t r = 0; r < 3; ++r)
    for (nt::index_t c = 0; c < 4; ++c) y.at(r, c) += b[c];
  EXPECT_LE(nt::max_abs_diff(qy.to_float(), y), 1e-2f);
}

namespace {

/// __int128 reference GEMM, one dot product per output: C = A * B (+ bias),
/// with B given as Bt (n x k) when `b_is_nk`. The bias is raised (or
/// rounded) to the product scale and seeds the accumulator, and exactly one
/// round-half-away-from-zero narrowing happens at the output boundary.
fx::FixedTensor wide_ref(const fx::FixedTensor& a, const fx::FixedTensor& b, bool b_is_nk,
                         const fx::FixedTensor& bias, fx::FixedFormat out) {
  const nt::index_t m = a.shape().dim(0), k = a.shape().dim(1);
  const nt::index_t n = b_is_nk ? b.shape().dim(0) : b.shape().dim(1);
  const int prod_frac = a.format().frac_bits() + b.format().frac_bits();
  fx::FixedTensor y(nt::Shape{m, n}, out);
  for (nt::index_t r = 0; r < m; ++r) {
    for (nt::index_t c = 0; c < n; ++c) {
      __int128 acc = 0;
      if (!bias.empty()) {
        const int bshift = prod_frac - bias.format().frac_bits();
        const __int128 bv = bias[c];
        const __int128 bhalf = bshift < 0 ? static_cast<__int128>(1) << (-bshift - 1) : 0;
        acc = bshift >= 0 ? bv << bshift : (bv + (bv >= 0 ? bhalf : bhalf - 1)) >> -bshift;
      }
      for (nt::index_t i = 0; i < k; ++i) {
        acc += static_cast<__int128>(a[r * k + i]) * (b_is_nk ? b[c * k + i] : b[i * n + c]);
      }
      const int shift = prod_frac - out.frac_bits();
      __int128 v = acc;
      if (shift > 0) {
        const __int128 half = static_cast<__int128>(1) << (shift - 1);
        v = (v + (v >= 0 ? half : half - 1)) >> shift;
      } else if (shift < 0) {
        v <<= -shift;
      }
      if (v > out.raw_max()) v = out.raw_max();
      if (v < out.raw_min()) v = out.raw_min();
      y[r * n + c] = static_cast<std::int64_t>(v);
    }
  }
  return y;
}

void expect_bitwise(const fx::FixedTensor& got, const fx::FixedTensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (nt::index_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " i=" << i;
  }
}

std::int64_t wide_fallbacks() {
  return nodetr::obs::Registry::instance().counter("fx.accum.wide_fallbacks").value();
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

}  // namespace

// The int64 datapath against the __int128 reference on every Table VIII
// scheme, over odd shapes that hit partial column tiles and odd row counts,
// with operands drawn over each format's full range. Every one of these
// shapes fits the int64 proof, so no call may fall back.
TEST(QGemmExact, NarrowPathMatchesWideReferenceOnAllSchemes) {
  nt::Rng rng(11);
  const nt::index_t shapes[][3] = {{1, 1, 1},  {7, 13, 37}, {36, 64, 64},
                                   {36, 16, 36}, {36, 36, 16}, {5, 3, 17}};
  const std::int64_t before = wide_fallbacks();
  for (const auto& scheme : fx::table8_schemes()) {
    for (const auto& s : shapes) {
      const nt::index_t m = s[0], k = s[1], n = s[2];
      const std::string what = scheme.to_string() + " " + std::to_string(m) + "x" +
                               std::to_string(k) + "x" + std::to_string(n);
      const auto a = random_codes(nt::Shape{m, k}, scheme.feature, rng);
      const auto b = random_codes(nt::Shape{k, n}, scheme.param, rng);
      const auto bt = random_codes(nt::Shape{n, k}, scheme.param, rng);
      const auto bias = random_codes(nt::Shape{n}, scheme.param, rng);
      const auto ff = scheme.feature;
      expect_bitwise(fx::qmatmul(a, b, ff), wide_ref(a, b, false, {}, ff), "qmatmul " + what);
      expect_bitwise(fx::qmatmul(a, fx::PackedB::from_kn(b), ff), wide_ref(a, b, false, {}, ff),
                     "qmatmul packed " + what);
      expect_bitwise(fx::qmatmul_nt(a, bt, ff), wide_ref(a, bt, true, {}, ff),
                     "qmatmul_nt " + what);
      expect_bitwise(fx::qlinear(a, bt, bias, ff), wide_ref(a, bt, true, bias, ff),
                     "qlinear " + what);
    }
  }
  EXPECT_EQ(wide_fallbacks(), before);
}

// Saturated codes at raw_max and raw_min. |raw_min| of a 32-bit format does
// not fit int32, so that operand must take the __int128 fallback; both paths
// must agree with the reference.
TEST(QGemmExact, AdversarialExtremeCodes) {
  for (const auto& scheme : fx::table8_schemes()) {
    const auto ff = scheme.feature, pf = scheme.param;
    for (const std::int64_t a_code : {ff.raw_max(), ff.raw_min()}) {
      fx::FixedTensor a(nt::Shape{3, 64}, ff), bt(nt::Shape{5, 64}, pf), bias(nt::Shape{5}, pf);
      for (nt::index_t i = 0; i < a.numel(); ++i) a[i] = i % 3 == 2 ? -a_code : a_code;
      for (nt::index_t i = 0; i < bt.numel(); ++i) bt[i] = i % 2 ? pf.raw_min() : pf.raw_max();
      for (nt::index_t i = 0; i < bias.numel(); ++i) bias[i] = i % 2 ? pf.raw_min() : pf.raw_max();
      const std::string what = scheme.to_string() + " a=" + std::to_string(a_code);
      const std::int64_t before = wide_fallbacks();
      expect_bitwise(fx::qlinear(a, bt, bias, ff), wide_ref(a, bt, true, bias, ff), what);
      const bool a_fits_int32 = a_code >= -std::int64_t{INT32_MAX} && a_code <= INT32_MAX;
      EXPECT_EQ(wide_fallbacks() - before, a_fits_int32 ? 0 : 1) << what;
    }
  }
}

namespace {

// Operands whose bound lands exactly on the int64 limit. Codes are
// M = 2^31 - 1 in 32(16) for x and W^T, so every product is at most
// M^2 = 2^62 - 2^32 + 1 and k = 2 of them sum to 2^63 - 2^33 + 2. The output
// is one fractional bit coarser than the products (half-LSB = 1) and the
// bias sits at the product scale, so the proof's left-hand side is
//   2^63 - 2^33 + 2 + bias_max + 1.
struct BoundCase {
  fx::FixedTensor x, w_t, bias;
  fx::FixedFormat out{63, 32};  // frac 31 = 32 + 32 - 1; raw_max 2^62 - 1
};

BoundCase bound_case(std::int64_t bias_max) {
  const fx::FixedFormat f{32, 16};
  const std::int64_t m = f.raw_max();
  BoundCase c{fx::FixedTensor(nt::Shape{2, 2}, f), fx::FixedTensor(nt::Shape{2, 2}, f),
              fx::FixedTensor(nt::Shape{2}, fx::FixedFormat{40, 8})};  // bias frac 32
  const std::int64_t signs[] = {1, 1, 1, -1};
  for (nt::index_t i = 0; i < 4; ++i) {
    c.x[i] = signs[i] * m;
    c.w_t[i] = signs[i] * m;
  }
  c.bias[0] = bias_max;
  c.bias[1] = -bias_max;
  return c;
}

}  // namespace

// bias_max = 2^33 - 4 puts the bound at 2^63 - 1: the largest case the int64
// path accepts. Output (0,0) is 2M^2 + bias = 2^63 - 2, whose rounding adds 1
// to reach exactly INT64_MAX, so the narrow path is exercised at its edge.
TEST(QGemmExact, ExactlyAtInt64BoundStaysNarrow) {
  const BoundCase c = bound_case((std::int64_t{1} << 33) - 4);
  const std::int64_t before = wide_fallbacks();
  const auto got = fx::qlinear(c.x, c.w_t, c.bias, c.out);
  EXPECT_EQ(wide_fallbacks(), before);
  expect_bitwise(got, wide_ref(c.x, c.w_t, true, c.bias, c.out), "at bound");
  EXPECT_EQ(got[0], c.out.raw_max());  // (2^63 - 1) >> 1, in range, not clamped
}

// One more unit of bias puts the bound at 2^63: the proof fails and the
// __int128 fallback must produce the reference bits (the narrow path would
// overflow computing output (0,0)).
TEST(QGemmExact, JustOverInt64BoundFallsBackWide) {
  const BoundCase c = bound_case((std::int64_t{1} << 33) - 3);
  const std::int64_t before = wide_fallbacks();
  const auto got = fx::qlinear(c.x, c.w_t, c.bias, c.out);
  EXPECT_EQ(wide_fallbacks() - before, 1);
  expect_bitwise(got, wide_ref(c.x, c.w_t, true, c.bias, c.out), "over bound");
}

// Codes wider than int32 pack into the int64 panel and take the fallback.
TEST(PackedB, WideCodesUseInt64Panel) {
  const fx::FixedFormat wide{48, 16};
  nt::Rng rng(12);
  const auto a = random_codes(nt::Shape{4, 6}, wide, rng);
  const auto b = random_codes(nt::Shape{6, 3}, wide, rng);
  const auto packed = fx::PackedB::from_kn(b);
  EXPECT_FALSE(packed.is_int32());
  EXPECT_EQ(packed.k(), 6);
  EXPECT_EQ(packed.n(), 3);
  const std::int64_t before = wide_fallbacks();
  expect_bitwise(fx::qmatmul(a, packed, wide), wide_ref(a, b, false, {}, wide), "int64 panel");
  EXPECT_EQ(wide_fallbacks() - before, 1);
}

TEST(PackedB, TransposedPackingMatches) {
  nt::Rng rng(13);
  const auto b = random_codes(nt::Shape{5, 9}, kP24, rng);
  fx::FixedTensor bt(nt::Shape{9, 5}, kP24);
  for (nt::index_t r = 0; r < 5; ++r) {
    for (nt::index_t c = 0; c < 9; ++c) bt[c * 5 + r] = b[r * 9 + c];
  }
  const auto p = fx::PackedB::from_kn(b), q = fx::PackedB::from_nk(bt);
  ASSERT_TRUE(p.is_int32());
  ASSERT_TRUE(q.is_int32());
  EXPECT_EQ(p.max_abs(), q.max_abs());
  for (nt::index_t i = 0; i < 45; ++i) EXPECT_EQ(p.codes32()[i], q.codes32()[i]);
  EXPECT_THROW(fx::qmatmul(random_codes(nt::Shape{2, 4}, kF32, rng), p, kF32),
               std::invalid_argument);
}

// Regression for the double-rounding bug: qlinear used to round the matmul
// into the output format, convert the bias separately (second rounding), and
// add saturating — off by one LSB whenever both roundings landed on ties.
// The accumulator must match the scalar reference bitwise, including at
// extreme scale gaps between the operand, bias, and output formats.
TEST(QLinear, BitwiseMatchesScalarReferenceAtExtremeScales) {
  nt::Rng rng(9);
  const fx::FixedFormat xf{32, 28};   // tiny steps, huge prod_frac
  const fx::FixedFormat wf{24, 20};
  const fx::FixedFormat bf{8, 4};     // coarse bias far from prod scale
  const fx::FixedFormat outs[] = {{8, 4}, {16, 8}, {32, 16}, {32, 24}};
  auto x = rng.randn(nt::Shape{5, 12}, 0.0f, 0.5f);
  auto w = rng.randn(nt::Shape{7, 12}, 0.0f, 0.5f);
  auto b = rng.randn(nt::Shape{7}, 0.0f, 2.0f);
  auto qx = fx::FixedTensor::from_float(x, xf);
  auto qw = fx::FixedTensor::from_float(w, wf);
  auto qb = fx::FixedTensor::from_float(b, bf);
  for (const auto& out : outs) {
    auto got = fx::qlinear(qx, qw, qb, out);
    auto want = wide_ref(qx, qw, /*b_is_nk=*/true, qb, out);
    ASSERT_EQ(got.numel(), want.numel());
    for (nt::index_t i = 0; i < got.numel(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "out=" << out.to_string() << " i=" << i;
    }
  }
}

// Deterministic half-LSB tie: the merged accumulator lands exactly between
// two output codes, where the old two-step rounding drifted.
TEST(QLinear, SingleRoundingAtTieBoundary) {
  const fx::FixedFormat f8{8, 4};
  // x*w = 1.0 * 0.5 = 0.5; bias = 0.03125 -> sum 0.53125 = 8.5 LSB at 8(4).
  // Half-away rounds to 9 LSB = 0.5625.
  auto qx = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1, 1}, 1.0f), fx::FixedFormat{16, 8});
  auto qw = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1, 1}, 0.5f), fx::FixedFormat{16, 8});
  auto qb = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1}, 0.03125f),
                                        fx::FixedFormat{16, 8});
  auto y = fx::qlinear(qx, qw, qb, f8);
  EXPECT_EQ(y[0], 9);
  // And the negative mirror rounds away from zero symmetrically.
  auto qxn = fx::FixedTensor::from_float(nt::Tensor(nt::Shape{1, 1}, -1.0f),
                                         fx::FixedFormat{16, 8});
  auto yn = fx::qlinear(qxn, qw, qb, f8);
  // -0.5 + 0.03125 = -0.46875 = -7.5 LSB -> -8 LSB half-away.
  EXPECT_EQ(yn[0], -8);
}

TEST(QuantErrorStats, ZeroForExactValues) {
  nt::Tensor t(nt::Shape{4}, std::vector<float>{1.0f, -2.0f, 0.5f, 0.25f});
  auto q = fx::FixedTensor::from_float(t, kF32);
  auto e = fx::quant_error(t, q);
  EXPECT_EQ(e.mean_abs, 0.0f);
  EXPECT_EQ(e.max_abs, 0.0f);
}

// Property: narrower feature formats give monotonically non-decreasing error
// (the Table VIII / Fig 9-10 premise).
TEST(QuantErrorStats, ErrorGrowsAsFormatNarrows) {
  nt::Rng rng(8);
  auto a = rng.randn(nt::Shape{8, 8});
  auto b = rng.randn(nt::Shape{8, 8});
  auto ref = nt::matmul(a, b);
  float prev = -1.0f;
  for (const auto& scheme : fx::table8_schemes()) {
    auto qc = fx::qmatmul(fx::FixedTensor::from_float(a, scheme.feature),
                          fx::FixedTensor::from_float(b, scheme.param), scheme.feature);
    const auto e = fx::quant_error(ref, qc);
    EXPECT_GE(e.max_abs + 1e-7f, prev) << "scheme " << scheme.to_string();
    prev = e.max_abs;
  }
}
