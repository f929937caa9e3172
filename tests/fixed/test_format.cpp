#include "nodetr/fx/format.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace fx = nodetr::fx;

TEST(FixedFormat, Q16_16Basics) {
  fx::FixedFormat f{32, 16};
  EXPECT_EQ(f.frac_bits(), 16);
  EXPECT_DOUBLE_EQ(f.resolution(), 1.0 / 65536.0);
  EXPECT_EQ(f.raw_max(), (std::int64_t{1} << 31) - 1);
  EXPECT_EQ(f.raw_min(), -(std::int64_t{1} << 31));
  EXPECT_EQ(f.to_string(), "32(16)");
}

TEST(FixedFormat, Table8SchemesInPaperOrder) {
  const auto& s = fx::table8_schemes();
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0].to_string(), "32(16)-24(8)");
  EXPECT_EQ(s[1].to_string(), "24(12)-20(6)");
  EXPECT_EQ(s[2].to_string(), "20(10)-16(4)");
  EXPECT_EQ(s[3].to_string(), "18(9)-14(4)");
  EXPECT_EQ(s[4].to_string(), "16(8)-12(4)");
}

TEST(Quantize, ExactValuesRoundTrip) {
  fx::FixedFormat f{16, 8};
  // 0.5 = 128 LSBs at 8 fractional bits.
  EXPECT_EQ(fx::quantize(0.5f, f), 128);
  EXPECT_FLOAT_EQ(fx::dequantize(128, f), 0.5f);
  EXPECT_EQ(fx::quantize(-1.0f, f), -256);
  EXPECT_FLOAT_EQ(fx::quantize_dequantize(-1.0f, f), -1.0f);
}

TEST(Quantize, RoundsHalfAwayFromZero) {
  fx::FixedFormat f{16, 8};
  // One LSB = 1/256; an exact half-LSB tie rounds away from zero on both
  // sides (deterministic, not banker's rounding).
  EXPECT_EQ(fx::quantize(1.0f / 512.0f, f), 1);
  EXPECT_EQ(fx::quantize(-1.0f / 512.0f, f), -1);
  EXPECT_EQ(fx::quantize(3.0f / 512.0f, f), 2);
  EXPECT_EQ(fx::quantize(-3.0f / 512.0f, f), -2);
  EXPECT_EQ(fx::quantize(3.0f / 256.0f + 0.4f / 256.0f, f), 3);
  EXPECT_EQ(fx::quantize(-3.0f / 256.0f - 0.4f / 256.0f, f), -3);
}

TEST(Quantize, TieRoundingIsSignSymmetric) {
  // The pre-fix nearbyint path rounded +0.5 LSB and -0.5 LSB to the same
  // even neighbour, biasing negatives one LSB relative to positives.
  fx::FixedFormat f{16, 8};
  for (int k = 1; k < 32; ++k) {
    const float tie = static_cast<float>(2 * k - 1) / 512.0f;  // (k - 0.5) LSBs
    EXPECT_EQ(fx::quantize(tie, f), -fx::quantize(-tie, f)) << "tie " << tie;
  }
}

TEST(Quantize, SaturatesAtRangeEdges) {
  fx::FixedFormat f{8, 4};  // storage range [-8, 7.9375]
  EXPECT_EQ(fx::quantize(100.0f, f), f.raw_max());
  // Symmetric saturation: the most negative code point (raw_min) is never
  // produced, so |quantized| always fits the format when negated.
  EXPECT_EQ(fx::quantize(-100.0f, f), -f.raw_max());
  EXPECT_EQ(fx::quantize(-8.0f, f), -f.raw_max());
  EXPECT_FLOAT_EQ(fx::dequantize(f.raw_max(), f), 7.9375f);
  EXPECT_FLOAT_EQ(fx::dequantize(f.raw_min(), f), -8.0f);
}

TEST(Quantize, NegationNeverOverflows) {
  // Guard for the INT*_MIN edge: for every format, -quantize(v) must stay
  // inside [raw_min, raw_max] even at the saturation rails.
  for (const auto& f : {fx::FixedFormat{8, 4}, fx::FixedFormat{16, 8}, fx::FixedFormat{32, 16}}) {
    for (float v : {-1e30f, -100.0f, static_cast<float>(f.min_value()), 0.0f,
                    static_cast<float>(f.max_value()), 1e30f}) {
      const auto q = fx::quantize(v, f);
      EXPECT_GE(-q, f.raw_min()) << f.to_string() << " v=" << v;
      EXPECT_LE(-q, f.raw_max()) << f.to_string() << " v=" << v;
    }
  }
}

TEST(Quantize, DequantizeRoundsToGridAndSaturates) {
  fx::FixedFormat f{8, 4};
  EXPECT_NEAR(fx::quantize_dequantize(0.3f, f), 0.3125f, 1e-5f);    // nearest 1/16 step
  EXPECT_NEAR(fx::quantize_dequantize(100.0f, f), 7.9375f, 1e-5f);  // saturated max
  // Saturated min: symmetric at -max, never the unnegatable raw minimum.
  EXPECT_NEAR(fx::quantize_dequantize(-100.0f, f), -7.9375f, 1e-5f);
}

TEST(Quantize, NanMapsToZero) {
  fx::FixedFormat f{16, 8};
  EXPECT_EQ(fx::quantize(std::nanf(""), f), 0);
}

TEST(ConvertRaw, WideningPreservesValue) {
  fx::FixedFormat narrow{16, 8}, wide{32, 16};
  const auto raw = fx::quantize(1.25f, narrow);
  const auto wraw = fx::convert_raw(raw, narrow, wide);
  EXPECT_FLOAT_EQ(fx::dequantize(wraw, wide), 1.25f);
}

TEST(ConvertRaw, NarrowingRoundsAndSaturates) {
  fx::FixedFormat wide{32, 16}, narrow{8, 4};
  EXPECT_FLOAT_EQ(fx::dequantize(fx::convert_raw(fx::quantize(1.5f, wide), wide, narrow), narrow),
                  1.5f);
  // 100.0 saturates in 8(4).
  EXPECT_EQ(fx::convert_raw(fx::quantize(100.0f, wide), wide, narrow), narrow.raw_max());
  EXPECT_EQ(fx::convert_raw(fx::quantize(-100.0f, wide), wide, narrow), narrow.raw_min());
}

TEST(ConvertRaw, IdentityWhenFormatsMatch) {
  fx::FixedFormat f{24, 8};
  const auto raw = fx::quantize(-3.375f, f);
  EXPECT_EQ(fx::convert_raw(raw, f, f), raw);
}

// Property sweep: quantization error is bounded by half an LSB inside range.
class QuantErrorBound : public ::testing::TestWithParam<fx::FixedFormat> {};

TEST_P(QuantErrorBound, HalfLsbBound) {
  const auto f = GetParam();
  const double lsb = f.resolution();
  for (float v : {0.0f, 0.1f, -0.7f, 1.9f, -1.99f, 3.14159f, -2.71828f}) {
    if (v >= f.min_value() && v <= f.max_value()) {
      EXPECT_LE(std::fabs(fx::quantize_dequantize(v, f) - v), lsb * 0.5 + 1e-9)
          << "format " << f.to_string() << " value " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, QuantErrorBound,
                         ::testing::Values(fx::FixedFormat{32, 16}, fx::FixedFormat{24, 8},
                                           fx::FixedFormat{20, 10}, fx::FixedFormat{16, 8},
                                           fx::FixedFormat{12, 4}, fx::FixedFormat{8, 4}));
