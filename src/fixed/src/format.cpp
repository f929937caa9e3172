#include "nodetr/fx/format.hpp"

#include "convert.hpp"

namespace nodetr::fx {

double FixedFormat::resolution() const { return detail::pow2(-frac_bits()); }

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

std::int64_t quantize(float v, const FixedFormat& f) { return detail::quantize(v, f); }

float dequantize(std::int64_t raw, const FixedFormat& f) {
  return detail::dequantize(raw, f.resolution());
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
