// Exact accumulation shared by the fixed-point kernels (qops.cpp, qconv.cpp).
//
// Every kernel sums integer products and rounds the sum once into the output
// format. An integer sum that never overflows is exact, so an int64
// accumulator gives bitwise the same result as an __int128 one whenever the
// bound below proves that no partial sum, and no rounding offset added to the
// total, can leave int64. fits_int64() is that proof; the kernels take the
// int64 path when it holds and keep __int128 as the fallback.
#pragma once

#include <cstdint>
#include <limits>

#include "nodetr/fx/format.hpp"
#include "nodetr/tensor/shape.hpp"

namespace nodetr::fx::detail {

using nodetr::tensor::index_t;
using wide_t = __int128;

/// Round a wide accumulator at `from_frac` fractional bits into `to`
/// (half away from zero, then saturate).
inline std::int64_t narrow(wide_t acc, int from_frac, const FixedFormat& to) {
  const int shift = from_frac - to.frac_bits();
  wide_t r = acc;
  if (shift > 0) {
    const wide_t half = wide_t{1} << (shift - 1);
    r = (r + (r >= 0 ? half : half - 1)) >> shift;
  } else if (shift < 0) {
    r <<= -shift;
  }
  if (r > to.raw_max()) return to.raw_max();
  if (r < to.raw_min()) return to.raw_min();
  return static_cast<std::int64_t>(r);
}

/// The same rounding for an int64 accumulator whose bound was proven by
/// fits_int64(): adding the half-LSB offset cannot overflow. A widening
/// shift (output finer than the products) goes through the wide overload.
inline std::int64_t narrow(std::int64_t acc, int from_frac, const FixedFormat& to) {
  const int shift = from_frac - to.frac_bits();
  if (shift < 0) return narrow(wide_t{acc}, from_frac, to);
  std::int64_t r = acc;
  if (shift > 0) {
    // acc >> 63 is -1 below zero and 0 otherwise: half - 1 or half, branch-free.
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    r = (r + half + (r >> 63)) >> shift;
  }
  if (r > to.raw_max()) return to.raw_max();
  if (r < to.raw_min()) return to.raw_min();
  return r;
}

/// Largest |v[i]| over [v, v + n), as unsigned so |INT64_MIN| is representable.
inline std::uint64_t max_abs(const std::int64_t* v, index_t n) {
  std::uint64_t m = 0;
  for (index_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::uint64_t>(v[i]);
    const std::uint64_t mag = v[i] < 0 ? std::uint64_t{0} - u : u;
    m = mag > m ? mag : m;
  }
  return m;
}

/// True when codes of magnitude <= max_abs fit int32. INT32_MIN does not
/// count: its magnitude is 2^31.
inline bool fits_int32(std::uint64_t max_abs) {
  return max_abs <= static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max());
}

/// The int64 accumulation proof. An accumulator seeded with a value of
/// magnitude <= bias_max that adds `terms` products, each of magnitude
/// <= amax * bmax, and is then rounded by `round_shift` bits (adding at most
/// 2^(round_shift-1)) stays inside int64 if
///   amax * bmax * terms + bias_max + half < 2^63.
/// Evaluated in unsigned 128-bit arithmetic, so the check itself never wraps.
inline bool fits_int64(std::uint64_t amax, std::uint64_t bmax, index_t terms,
                       std::uint64_t bias_max, int round_shift) {
  using uwide_t = unsigned __int128;
  constexpr uwide_t kLimit = uwide_t{1} << 63;
  if (round_shift > 63) return false;
  const uwide_t half = round_shift > 0 ? uwide_t{1} << (round_shift - 1) : 0;
  const uwide_t prod = uwide_t{amax} * bmax;  // <= 2^126: both factors are <= 2^63
  const auto t = static_cast<uwide_t>(terms);
  if (prod != 0 && t > kLimit / prod) return false;
  return prod * t + bias_max + half < kLimit;
}

/// Count of GEMM/conv calls that failed the proof and ran the __int128 path.
void count_wide_fallback();

}  // namespace nodetr::fx::detail
