// Exact accumulation shared by the fixed-point kernels (qops.cpp, qconv.cpp,
// qmhsa.cpp).
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

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

#if defined(__x86_64__) || defined(__i386__)

/// True when narrow4() can round from `from_frac` fractional bits into `to`:
/// a right shift of 1 to 32 bits.
inline bool narrow4_fits(int from_frac, const FixedFormat& to) {
  const int shift = from_frac - to.frac_bits();
  return shift >= 1 && shift <= 32;
}

/// The constants of one int64 narrow() applied four lanes at a time.
struct Narrow4 {
  __m256i half;    ///< the rounding offset 2^(shift-1)
  __m256i lo, hi;  ///< the output format's raw_min() and raw_max()
  __m128i shift;
};

/// Narrow4 for rounding from `from_frac` into `to`, where narrow4_fits().
__attribute__((target("avx2"))) inline Narrow4 make_narrow4(int from_frac,
                                                            const FixedFormat& to) {
  const int shift = from_frac - to.frac_bits();
  const std::int64_t half = shift >= 1 ? std::int64_t{1} << (shift - 1) : 0;
  return {_mm256_set1_epi64x(half), _mm256_set1_epi64x(to.raw_min()),
          _mm256_set1_epi64x(to.raw_max()), _mm_cvtsi32_si128(shift)};
}

/// Clamp int64 lanes into [lo, hi] (AVX2 has no 64-bit min/max).
__attribute__((target("avx2"))) inline __m256i clamp4(__m256i v, __m256i lo, __m256i hi) {
  v = _mm256_blendv_epi8(v, hi, _mm256_cmpgt_epi64(v, hi));
  return _mm256_blendv_epi8(v, lo, _mm256_cmpgt_epi64(lo, v));
}

/// The int64 narrow() on four lanes: the same half-away-from-zero rounding
/// and saturation, so the same codes. AVX2 has no 64-bit arithmetic right
/// shift; for a shift of at most 32 bits the result's low dword is the
/// logical shift's and its high dword the 32-bit arithmetic shift's.
__attribute__((target("avx2"))) inline __m256i narrow4(__m256i acc, const Narrow4& n) {
  // + half, or + (half - 1) below zero: the compare mask is -1 there.
  __m256i r = _mm256_add_epi64(_mm256_add_epi64(acc, n.half),
                               _mm256_cmpgt_epi64(_mm256_setzero_si256(), acc));
  r = _mm256_blend_epi32(_mm256_srl_epi64(r, n.shift), _mm256_sra_epi32(r, n.shift), 0xAA);
  return clamp4(r, n.lo, n.hi);
}

#endif

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
