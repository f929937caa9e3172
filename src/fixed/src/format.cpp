#include "nodetr/fx/format.hpp"

#include <bit>
#include <cmath>

namespace nodetr::fx {

namespace {

/// 2^e exactly, built from its IEEE-754 exponent bits: no libm call and no
/// division on the per-element conversion paths.
double pow2(int e) {
  if (e >= -1022 && e <= 1023) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + e) << 52);
  }
  return std::ldexp(1.0, e);
}

}  // namespace

double FixedFormat::resolution() const { return pow2(-frac_bits()); }

double FixedFormat::max_value() const {
  return static_cast<double>(raw_max()) * resolution();
}

double FixedFormat::min_value() const {
  return static_cast<double>(raw_min()) * resolution();
}

std::string FixedFormat::to_string() const {
  return std::to_string(total_bits) + "(" + std::to_string(int_bits) + ")";
}

std::string QuantizationScheme::to_string() const {
  return feature.to_string() + "-" + param.to_string();
}

QuantizationScheme scheme_32_24() { return {{32, 16}, {24, 8}}; }
QuantizationScheme scheme_24_20() { return {{24, 12}, {20, 6}}; }
QuantizationScheme scheme_20_16() { return {{20, 10}, {16, 4}}; }
QuantizationScheme scheme_18_14() { return {{18, 9}, {14, 4}}; }
QuantizationScheme scheme_16_12() { return {{16, 8}, {12, 4}}; }

const std::vector<QuantizationScheme>& table8_schemes() {
  static const std::vector<QuantizationScheme> schemes = {
      scheme_32_24(), scheme_24_20(), scheme_20_16(), scheme_18_14(), scheme_16_12()};
  return schemes;
}

std::int64_t saturate(std::int64_t raw, const FixedFormat& f) {
  if (raw > f.raw_max()) return f.raw_max();
  if (raw < f.raw_min()) return f.raw_min();
  return raw;
}

std::int64_t quantize(float v, const FixedFormat& f) {
  if (std::isnan(v)) return 0;
  const double scaled = static_cast<double>(v) * pow2(f.frac_bits());
  // Round half away from zero: +ties and -ties move symmetrically, so the
  // rounding error has zero mean on the symmetric weight distributions the
  // quantization sweeps feed through here (nearbyint's half-even broke the
  // sign symmetry for exact half-LSB values). floor(scaled + 0.5) for
  // scaled >= 0 and ceil(scaled - 0.5) below zero are both the truncation of
  // the offset value, which the final conversion performs.
  const double offset = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
  // Saturate symmetrically to +/- raw_max: the raw_min() code point stays
  // unused so |q| is always negatable without overflowing the format's width
  // (the INT*_MIN edge), and the dequantized grid is sign-symmetric. Clamp in
  // double space, where an integral bound commutes with truncation; llrint
  // would overflow for huge v.
  const double hi = static_cast<double>(f.raw_max());
  const double clamped = offset > hi ? hi : (offset < -hi ? -hi : offset);
  return static_cast<std::int64_t>(clamped);
}

float dequantize(std::int64_t raw, const FixedFormat& f) {
  return static_cast<float>(static_cast<double>(raw) * f.resolution());
}

float quantize_dequantize(float v, const FixedFormat& f) { return dequantize(quantize(v, f), f); }

std::int64_t convert_raw(std::int64_t raw, const FixedFormat& from, const FixedFormat& to) {
  const int shift = to.frac_bits() - from.frac_bits();
  std::int64_t r = raw;
  if (shift > 0) {
    // Widening: guard against overflow of the pre-saturation shift.
    if (shift >= 63) return raw >= 0 ? to.raw_max() : to.raw_min();
    const std::int64_t limit = std::int64_t{1} << (62 - shift);
    if (r > limit) return to.raw_max();
    if (r < -limit) return to.raw_min();
    r <<= shift;
  } else if (shift < 0) {
    // Narrowing: round to nearest (add half LSB before arithmetic shift).
    const int s = -shift;
    const std::int64_t half = std::int64_t{1} << (s - 1);
    r = (r + (r >= 0 ? half : half - 1)) >> s;
  }
  return saturate(r, to);
}

}  // namespace nodetr::fx
