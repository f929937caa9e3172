// Float <-> code conversion shared by format.cpp and the kernels that
// convert once per element (qops.cpp, qmhsa.cpp). Inline so those loops pay
// no call per element; private so every caller compiles it under the fixed
// library's -ffp-contract=off, which keeps its double arithmetic unfused.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "nodetr/fx/format.hpp"

namespace nodetr::fx::detail {

/// 2^e exactly, built from its IEEE-754 exponent bits: no libm call and no
/// division on the per-element conversion paths.
inline double pow2(int e) {
  if (e >= -1022 && e <= 1023) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + e) << 52);
  }
  return std::ldexp(1.0, e);
}

/// fx::quantize().
inline std::int64_t quantize(float v, const FixedFormat& f) {
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

/// fx::dequantize() with the format's resolution `res` computed once.
inline float dequantize(std::int64_t raw, double res) {
  return static_cast<float>(static_cast<double>(raw) * res);
}

}  // namespace nodetr::fx::detail
