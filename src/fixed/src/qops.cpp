#include "nodetr/fx/qops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/arena.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "convert.hpp"
#include "qkernels.hpp"

namespace nodetr::fx {

namespace detail {

void count_wide_fallback() {
  static auto& fallbacks = obs::Registry::instance().counter("fx.accum.wide_fallbacks");
  fallbacks.add();
}

}  // namespace detail

const std::vector<KernelForm>& kernel_forms() {
  static const std::vector<KernelForm> forms = [] {
    std::vector<KernelForm> f;
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) f.push_back(KernelForm::kAvx2);
#endif
    f.push_back(KernelForm::kPortable);
    return f;
  }();
  return forms;
}

namespace {

using detail::narrow;
using detail::wide_t;
using nodetr::tensor::ScratchArena;

void check_rank2(const FixedTensor& t, const char* who) {
  if (t.shape().rank() != 2) throw std::invalid_argument(std::string(who) + ": rank must be 2");
}

/// Rows of C handed to one pool chunk: enough MACs that a fork/join pays for
/// itself. The MHSA IP's GEMMs (36x64x64 and smaller) stay on the caller.
index_t row_grain(index_t k, index_t n) {
  constexpr index_t kMacsPerChunk = index_t{1} << 18;
  return std::max<index_t>(1, kMacsPerChunk / std::max<index_t>(k * n, 1));
}

/// Arguments of one GEMM C = A * B (+ bias): A row-major m x k int64 codes,
/// B a packed k x n panel, and the optional bias already at `prod_frac`.
struct Gemm {
  const std::int64_t* a;
  const PackedB* b;
  const wide_t* bias;
  std::int64_t* out;
  index_t k, n;
  int prod_frac;
  FixedFormat out_format;
};

/// Columns of one output row accumulated at a time.
constexpr index_t kCols = 16;

/// Round `w` int64 accumulators into row `i`, columns [j0, j0 + w).
void store_cols(const Gemm& g, const std::int64_t* acc, index_t i, index_t j0, index_t w) {
  std::int64_t* dst = g.out + i * g.n + j0;
  for (index_t j = 0; j < w; ++j) dst[j] = narrow(acc[j], g.prod_frac, g.out_format);
}

/// Rows [lo, hi), columns [j_begin, n) of an int64-accumulated GEMM, in axpy
/// order: each step broadcasts one A code over kCols columns of one panel row.
/// Valid only when fits_int64() holds and every A code fits int32.
void narrow_cols(const Gemm& g, index_t lo, index_t hi, index_t j_begin) {
  const std::int32_t* b = g.b->codes32();
  for (index_t i = lo; i < hi; ++i) {
    const std::int64_t* arow = g.a + i * g.k;
    for (index_t j0 = j_begin; j0 < g.n; j0 += kCols) {
      const index_t w = std::min(kCols, g.n - j0);
      std::int64_t acc[kCols];
      for (index_t j = 0; j < w; ++j) {
        acc[j] = g.bias ? static_cast<std::int64_t>(g.bias[j0 + j]) : 0;
      }
      for (index_t p = 0; p < g.k; ++p) {
        const std::int64_t av = arow[p];
        const std::int32_t* brow = b + p * g.n + j0;
        for (index_t j = 0; j < w; ++j) acc[j] += av * brow[j];
      }
      store_cols(g, acc, i, j0, w);
    }
  }
}

void narrow_rows(const Gemm& g, index_t lo, index_t hi) { narrow_cols(g, lo, hi, 0); }

#if defined(__x86_64__) || defined(__i386__)

/// Round 8 columns held as even/odd lanes ({0,2,4,6} and {1,3,5,7}) and
/// store them in column order at `dst`.
__attribute__((target("avx2"))) void store8(std::int64_t* dst, __m256i even, __m256i odd,
                                            const detail::Narrow4& nr) {
  even = detail::narrow4(even, nr);
  odd = detail::narrow4(odd, nr);
  const __m256i lo = _mm256_unpacklo_epi64(even, odd);  // columns 0 1 4 5
  const __m256i hi = _mm256_unpackhi_epi64(even, odd);  // columns 2 3 6 7
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 4),
                      _mm256_permute2x128_si256(lo, hi, 0x31));
}

/// Rows [i, i + R) x columns [j0, j0 + kCols) of an int64-accumulated GEMM.
/// A 256-bit load of 8 int32 panel codes holds column pairs in its 64-bit
/// lanes: vpmuldq (signed 32 x 32 -> 64 on the low halves) takes the even
/// columns, and the same lanes shifted down by 32 give the odd ones, so even
/// and odd columns accumulate in separate registers with no shuffles.
template <int R>
__attribute__((target("avx2"))) void avx2_tile(const Gemm& g, const detail::Narrow4& nr,
                                               index_t i, index_t j0) {
  const std::int32_t* b = g.b->codes32() + j0;
  __m256i even[R][2], odd[R][2];
  for (int r = 0; r < R; ++r) {
    even[r][0] = even[r][1] = odd[r][0] = odd[r][1] = _mm256_setzero_si256();
  }
  for (index_t p = 0; p < g.k; ++p) {
    const auto* brow = reinterpret_cast<const __m256i*>(b + p * g.n);
    const __m256i b0 = _mm256_loadu_si256(brow);
    const __m256i b1 = _mm256_loadu_si256(brow + 1);
    const __m256i b0_odd = _mm256_srli_epi64(b0, 32);
    const __m256i b1_odd = _mm256_srli_epi64(b1, 32);
    for (int r = 0; r < R; ++r) {
      const __m256i av = _mm256_set1_epi64x(g.a[(i + r) * g.k + p]);
      even[r][0] = _mm256_add_epi64(even[r][0], _mm256_mul_epi32(av, b0));
      odd[r][0] = _mm256_add_epi64(odd[r][0], _mm256_mul_epi32(av, b0_odd));
      even[r][1] = _mm256_add_epi64(even[r][1], _mm256_mul_epi32(av, b1));
      odd[r][1] = _mm256_add_epi64(odd[r][1], _mm256_mul_epi32(av, b1_odd));
    }
  }
  if (!g.bias) {
    for (int r = 0; r < R; ++r) {
      std::int64_t* dst = g.out + (i + r) * g.n + j0;
      store8(dst, even[r][0], odd[r][0], nr);
      store8(dst + 8, even[r][1], odd[r][1], nr);
    }
    return;
  }
  for (int r = 0; r < R; ++r) {
    alignas(32) std::int64_t lanes[4][4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[0]), even[r][0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[1]), odd[r][0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[2]), even[r][1]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[3]), odd[r][1]);
    std::int64_t acc[kCols];
    for (int q = 0; q < 4; ++q) {
      acc[2 * q] = lanes[0][q];
      acc[2 * q + 1] = lanes[1][q];
      acc[8 + 2 * q] = lanes[2][q];
      acc[8 + 2 * q + 1] = lanes[3][q];
    }
    for (index_t j = 0; j < kCols; ++j) acc[j] += static_cast<std::int64_t>(g.bias[j0 + j]);
    store_cols(g, acc, i + r, j0, kCols);
  }
}

/// AVX2 twin of narrow_rows: full 16-column tiles two rows at a time (one
/// for a last odd row), rounded four lanes at a time, and the scalar loop for
/// a partial tile. Same integer sums and rounding, so the same bits.
__attribute__((target("avx2"))) void narrow_rows_avx2(const Gemm& g, index_t lo, index_t hi) {
  const index_t full = g.n - g.n % kCols;
  const detail::Narrow4 nr = detail::make_narrow4(g.prod_frac, g.out_format);
  for (index_t j0 = 0; j0 < full; j0 += kCols) {
    index_t i = lo;
    for (; i + 2 <= hi; i += 2) avx2_tile<2>(g, nr, i, j0);
    if (i < hi) avx2_tile<1>(g, nr, i, j0);
  }
  if (full < g.n) narrow_cols(g, lo, hi, full);
}

#endif

using RowsFn = void (*)(const Gemm&, index_t, index_t);

/// The int64 row loop of `form`; the AVX2 one rounds through narrow4().
RowsFn narrow_rows_fn(KernelForm form, const Gemm& g) {
#if defined(__x86_64__) || defined(__i386__)
  if (form == KernelForm::kAvx2 && detail::narrow4_fits(g.prod_frac, g.out_format)) {
    return narrow_rows_avx2;
  }
#endif
  (void)form;
  (void)g;
  return narrow_rows;
}

/// Rows [lo, hi) accumulated in __int128: the overflow fallback for operands
/// the int64 proof rejects. `B` is the panel's code type.
template <typename B>
void wide_rows(const Gemm& g, const B* b, index_t lo, index_t hi) {
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  wide_t* acc = arena.alloc<wide_t>(static_cast<std::size_t>(g.n));
  for (index_t i = lo; i < hi; ++i) {
    const std::int64_t* arow = g.a + i * g.k;
    for (index_t j = 0; j < g.n; ++j) acc[j] = g.bias ? g.bias[j] : 0;
    for (index_t p = 0; p < g.k; ++p) {
      const wide_t av = arow[p];
      const B* brow = b + p * g.n;
      for (index_t j = 0; j < g.n; ++j) acc[j] += av * brow[j];
    }
    for (index_t j = 0; j < g.n; ++j) {
      g.out[i * g.n + j] = narrow(acc[j], g.prod_frac, g.out_format);
    }
  }
}

}  // namespace

namespace detail {

// Fixed-point accumulation is exact integer arithmetic, so the result is
// bitwise identical for any accumulation order or width that does not
// overflow. The bias joins the accumulators so the whole affine sum is
// rounded exactly once (ap_fixed semantics — rounding the matmul and the bias
// separately double-rounds).
void qgemm(const std::int64_t* a, index_t m, const PackedB& b, std::int64_t* out,
           FixedFormat out_format, int prod_frac, KernelForm form, bool fork,
           const wide_t* bias, std::uint64_t bias_max) {
  const index_t k = b.k(), n = b.n();
  const Gemm g{a, &b, bias, out, k, n, prod_frac, out_format};
  const std::uint64_t amax = max_abs(a, m * k);
  const bool int64_ok = b.is_int32() && fits_int32(amax) &&
                        fits_int64(amax, b.max_abs(), k, bias_max,
                                   prod_frac - out_format.frac_bits());
  const auto run_rows = [&](auto&& rows) {
    if (fork) {
      nodetr::tensor::parallel_for(0, m, rows, row_grain(k, n));
    } else {
      rows(0, m);
    }
  };
  if (int64_ok) {
    const RowsFn rows = narrow_rows_fn(form, g);
    run_rows([&](index_t lo, index_t hi) { rows(g, lo, hi); });
    return;
  }
  count_wide_fallback();
  run_rows([&](index_t lo, index_t hi) {
    if (b.is_int32()) {
      wide_rows(g, b.codes32(), lo, hi);
    } else {
      wide_rows(g, b.codes64(), lo, hi);
    }
  });
}

}  // namespace detail

namespace {

/// qgemm into `out` through the fastest form, forking when it pays.
void qgemm(const FixedTensor& a, const PackedB& b, FixedTensor& out, int prod_frac,
           const wide_t* bias = nullptr, std::uint64_t bias_max = 0) {
  detail::qgemm(a.raw(), a.shape().dim(0), b, out.raw(), out.format(), prod_frac,
                kernel_forms().front(), /*fork=*/true, bias, bias_max);
}

}  // namespace

PackedB PackedB::pack(const FixedTensor& src, bool nk) {
  PackedB p;
  p.k_ = src.shape().dim(nk ? 1 : 0);
  p.n_ = src.shape().dim(nk ? 0 : 1);
  p.format_ = src.format();
  p.max_abs_ = detail::max_abs(src.raw(), src.numel());
  const auto fill = [&](auto& codes) {
    using Code = typename std::decay_t<decltype(codes)>::value_type;
    codes.resize(static_cast<std::size_t>(p.k_ * p.n_));
    for (index_t r = 0; r < p.k_; ++r) {
      for (index_t c = 0; c < p.n_; ++c) {
        const std::int64_t v = nk ? src[c * p.k_ + r] : src[r * p.n_ + c];
        codes[static_cast<std::size_t>(r * p.n_ + c)] = static_cast<Code>(v);
      }
    }
  };
  if (detail::fits_int32(p.max_abs_)) {
    fill(p.codes32_);
  } else {
    fill(p.codes64_);
  }
  return p;
}

PackedB PackedB::from_kn(const FixedTensor& b) {
  check_rank2(b, "PackedB::from_kn");
  return pack(b, /*nk=*/false);
}

PackedB PackedB::from_nk(const FixedTensor& bt) {
  check_rank2(bt, "PackedB::from_nk");
  return pack(bt, /*nk=*/true);
}

FixedTensor qmatmul(const FixedTensor& a, const PackedB& b, FixedFormat out_format) {
  check_rank2(a, "qmatmul: a");
  if (a.shape().dim(1) != b.k()) throw std::invalid_argument("qmatmul: inner dimension mismatch");
  FixedTensor c(Shape{a.shape().dim(0), b.n()}, out_format);
  qgemm(a, b, c, a.format().frac_bits() + b.format().frac_bits());
  return c;
}

FixedTensor qmatmul(const FixedTensor& a, const FixedTensor& b, FixedFormat out_format) {
  check_rank2(a, "qmatmul: a");
  check_rank2(b, "qmatmul: b");
  if (b.shape().dim(0) != a.shape().dim(1)) {
    throw std::invalid_argument("qmatmul: inner dimension mismatch");
  }
  return qmatmul(a, PackedB::from_kn(b), out_format);
}

FixedTensor qmatmul_nt(const FixedTensor& a, const FixedTensor& b, FixedFormat out_format) {
  check_rank2(a, "qmatmul_nt: a");
  check_rank2(b, "qmatmul_nt: b");
  if (b.shape().dim(1) != a.shape().dim(1)) {
    throw std::invalid_argument("qmatmul_nt: inner dimension mismatch");
  }
  return qmatmul(a, PackedB::from_nk(b), out_format);
}

FixedTensor qadd(const FixedTensor& a, const FixedTensor& b) {
  if (!(a.shape() == b.shape())) throw std::invalid_argument("qadd: shape mismatch");
  if (!(a.format() == b.format())) throw std::invalid_argument("qadd: format mismatch");
  FixedTensor c(a.shape(), a.format());
  for (index_t i = 0; i < a.numel(); ++i) c[i] = saturate(a[i] + b[i], a.format());
  return c;
}

FixedTensor qrelu(const FixedTensor& a) {
  FixedTensor c(a.shape(), a.format());
  for (index_t i = 0; i < a.numel(); ++i) c[i] = a[i] > 0 ? a[i] : 0;
  return c;
}

FixedTensor qscale(const FixedTensor& a, float scale) {
  // The scale constant itself is quantized into the operand's format, as a
  // hardware constant multiplier would be.
  const std::int64_t qs = quantize(scale, a.format());
  const int prod_frac = 2 * a.format().frac_bits();
  FixedTensor c(a.shape(), a.format());
  const std::uint64_t qs_abs = detail::max_abs(&qs, 1);
  if (detail::fits_int64(detail::max_abs(a.raw(), a.numel()), qs_abs, 1, 0,
                         prod_frac - a.format().frac_bits())) {
    for (index_t i = 0; i < a.numel(); ++i) c[i] = narrow(a[i] * qs, prod_frac, a.format());
    return c;
  }
  for (index_t i = 0; i < a.numel(); ++i) {
    const wide_t p = static_cast<wide_t>(a[i]) * qs;
    c[i] = narrow(p, prod_frac, a.format());
  }
  return c;
}

namespace detail {

namespace {

/// Exact sum and sum of squares of one row, converted to double once.
template <typename Acc>
void row_moments(const std::int64_t* in, index_t cols, double& s, double& s2) {
  Acc sum = 0, sum2 = 0;
  for (index_t c = 0; c < cols; ++c) {
    sum += in[c];
    sum2 += static_cast<Acc>(in[c]) * in[c];
  }
  s = static_cast<double>(sum);
  s2 = static_cast<double>(sum2);
}

/// One row's normalization: the per-element double arithmetic of
/// qlayernorm_rows, then quantize() into `ff`, for columns [c0, cols).
struct LnRow {
  const double* g;
  const double* b;
  double res, mean, inv_std;
  FixedFormat ff;
};

void normalize_cols(const LnRow& ln, const std::int64_t* in, index_t c0, index_t cols,
                    std::int64_t* o) {
  for (index_t c = c0; c < cols; ++c) {
    const double xv = static_cast<double>(in[c]) * ln.res;
    const double y = (xv - ln.mean) * ln.inv_std * ln.g[c] + ln.b[c];
    o[c] = detail::quantize(static_cast<float>(y), ln.ff);
  }
}

#if defined(__x86_64__) || defined(__i386__)

/// int64 row_moments four lanes at a time; every code must fit int32
/// (vpmuldq squares the low halves) and fits_int64() must hold.
__attribute__((target("avx2"))) void row_moments_avx2(const std::int64_t* in, index_t cols,
                                                      double& s, double& s2) {
  __m256i sum = _mm256_setzero_si256(), sum2 = _mm256_setzero_si256();
  index_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + c));
    sum = _mm256_add_epi64(sum, v);
    sum2 = _mm256_add_epi64(sum2, _mm256_mul_epi32(v, v));
  }
  alignas(32) std::int64_t l1[4], l2[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(l1), sum);
  _mm256_store_si256(reinterpret_cast<__m256i*>(l2), sum2);
  std::int64_t t1 = l1[0] + l1[1] + l1[2] + l1[3], t2 = l2[0] + l2[1] + l2[2] + l2[3];
  for (; c < cols; ++c) {
    t1 += in[c];
    t2 += in[c] * in[c];
  }
  s = static_cast<double>(t1);
  s2 = static_cast<double>(t2);
}

/// normalize_cols four lanes at a time: the same IEEE double operations in
/// the same order (no contraction in intrinsics), the same float rounding,
/// and quantize()'s rounding, clamp and truncation. Codes and the clamped
/// results must fit int32 (a feature format of at most 32 bits).
__attribute__((target("avx2"))) void normalize_avx2(const LnRow& ln, const std::int64_t* in,
                                                    index_t cols, std::int64_t* o) {
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256d res = _mm256_set1_pd(ln.res), mean = _mm256_set1_pd(ln.mean),
                inv_std = _mm256_set1_pd(ln.inv_std), zero = _mm256_setzero_pd(),
                half = _mm256_set1_pd(0.5), scale = _mm256_set1_pd(pow2(ln.ff.frac_bits())),
                hi = _mm256_set1_pd(static_cast<double>(ln.ff.raw_max())),
                lo = _mm256_set1_pd(-static_cast<double>(ln.ff.raw_max()));
  index_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + c));
    const __m128i v32 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, low_halves));
    const __m256d xv = _mm256_mul_pd(_mm256_cvtepi32_pd(v32), res);
    __m256d y = _mm256_mul_pd(_mm256_sub_pd(xv, mean), inv_std);
    y = _mm256_add_pd(_mm256_mul_pd(y, _mm256_loadu_pd(ln.g + c)), _mm256_loadu_pd(ln.b + c));
    const __m256d f = _mm256_cvtps_pd(_mm256_cvtpd_ps(y));
    const __m256d scaled = _mm256_mul_pd(f, scale);
    const __m256d up = _mm256_cmp_pd(scaled, zero, _CMP_GE_OQ);
    __m256d offset = _mm256_blendv_pd(_mm256_sub_pd(scaled, half), _mm256_add_pd(scaled, half), up);
    offset = _mm256_max_pd(_mm256_min_pd(offset, hi), lo);
    const __m256d nan = _mm256_cmp_pd(f, f, _CMP_UNORD_Q);
    const __m256i q = _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(_mm256_andnot_pd(nan, offset)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + c), q);
  }
  normalize_cols(ln, in, c, cols, o);
}

#endif

}  // namespace

void layernorm_params(const FixedTensor& gamma, const FixedTensor& beta, double* g, double* b) {
  const double gres = gamma.format().resolution();
  for (index_t c = 0; c < gamma.numel(); ++c) {
    g[c] = static_cast<double>(gamma[c]) * gres;
    b[c] = static_cast<double>(beta[c]) * gres;
  }
}

void layernorm_rows(const std::int64_t* x, index_t rows, index_t cols, const FixedFormat& ff,
                    const double* g, const double* b, float eps, std::int64_t* out,
                    KernelForm form) {
  const double n = static_cast<double>(cols);
  const double res = ff.resolution();
  // The AVX2 normalization truncates through int32: a format of at most 32 bits.
  const bool avx2 = form == KernelForm::kAvx2 && ff.total_bits <= 32;
  for (index_t r = 0; r < rows; ++r) {
    const std::int64_t* in = x + r * cols;
    std::int64_t* o = out + r * cols;
    // Exact integer mean/variance at the feature scale: int64 where the
    // row's largest code proves the sum of squares fits, else __int128.
    // Either exact sum converts to the same double.
    // The AVX2 row reads each code as an int32.
    double s = 0.0, s2 = 0.0;
    const std::uint64_t m = max_abs(in, cols);
    [[maybe_unused]] const bool row_avx2 = avx2 && fits_int32(m);
    if (!fits_int64(m, m, cols, 0, 0)) {
      row_moments<wide_t>(in, cols, s, s2);
#if defined(__x86_64__) || defined(__i386__)
    } else if (row_avx2) {
      row_moments_avx2(in, cols, s, s2);
#endif
    } else {
      row_moments<std::int64_t>(in, cols, s, s2);
    }
    const double mean = s / n * res;
    const double ex2 = s2 / n * res * res;
    const double var = std::max(ex2 - mean * mean, 0.0);
    const double inv_std = 1.0 / std::sqrt(var + eps);
    // Normalize, apply gain/bias, requantize into the feature format.
    const LnRow ln{g, b, res, mean, inv_std, ff};
#if defined(__x86_64__) || defined(__i386__)
    if (row_avx2) {
      normalize_avx2(ln, in, cols, o);
      continue;
    }
#endif
    normalize_cols(ln, in, 0, cols, o);
  }
}

}  // namespace detail

FixedTensor qlayernorm_rows(const FixedTensor& x, const FixedTensor& gamma,
                            const FixedTensor& beta, float eps) {
  check_rank2(x, "qlayernorm_rows");
  const index_t rows = x.shape().dim(0), cols = x.shape().dim(1);
  if (gamma.numel() != cols || beta.numel() != cols) {
    throw std::invalid_argument("qlayernorm_rows: gamma/beta size mismatch");
  }
  FixedTensor out(x.shape(), x.format());
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  double* g = arena.alloc<double>(static_cast<std::size_t>(cols));
  double* b = arena.alloc<double>(static_cast<std::size_t>(cols));
  detail::layernorm_params(gamma, beta, g, b);
  detail::layernorm_rows(x.raw(), rows, cols, x.format(), g, b, eps, out.raw(),
                         kernel_forms().front());
  return out;
}

FixedTensor qlinear(const FixedTensor& x, const FixedTensor& weight_t, const FixedTensor& bias,
                    FixedFormat out_format) {
  if (bias.empty()) return qmatmul_nt(x, weight_t, out_format);
  check_rank2(x, "qlinear: x");
  check_rank2(weight_t, "qlinear: weight_t");
  const index_t m = x.shape().dim(0), k = x.shape().dim(1), n = weight_t.shape().dim(0);
  if (weight_t.shape().dim(1) != k) throw std::invalid_argument("qlinear: inner dimension mismatch");
  if (bias.numel() != n) throw std::invalid_argument("qlinear: bias size mismatch");
  const int prod_frac = x.format().frac_bits() + weight_t.format().frac_bits();
  // Raise the bias exactly to the accumulator's scale and let it seed the
  // dot products, so x*W^T + b is rounded once into out_format — rounding
  // the matmul first and the bias separately gave each output two roundings
  // and a bitwise mismatch against the single-pass HLS accumulator. The
  // widening shift is exact for every scheme (prod_frac >= bias frac_bits
  // whenever the feature format has any fractional bits); a hypothetically
  // coarser accumulator would round the bias constant once here instead.
  const int bshift = prod_frac - bias.format().frac_bits();
  std::vector<wide_t> wide_bias(static_cast<std::size_t>(n));
  std::uint64_t bias_max = 0;
  for (index_t j = 0; j < n; ++j) {
    const wide_t b = bias[j];
    const wide_t v = bshift >= 0 ? b << bshift
                                 : (b + (b >= 0 ? (wide_t{1} << (-bshift - 1))
                                                : (wide_t{1} << (-bshift - 1)) - 1)) >> -bshift;
    wide_bias[static_cast<std::size_t>(j)] = v;
    const wide_t mag = v < 0 ? -v : v;
    constexpr auto kMax = static_cast<wide_t>(std::numeric_limits<std::uint64_t>::max());
    bias_max = std::max(bias_max, static_cast<std::uint64_t>(std::min(mag, kMax)));
  }
  FixedTensor y(Shape{m, n}, out_format);
  qgemm(x, PackedB::from_nk(weight_t), y, prod_frac, wide_bias.data(), bias_max);
  return y;
}

QuantError quant_error(const Tensor& reference, const FixedTensor& result) {
  const Tensor approx = result.to_float();
  QuantError e;
  e.mean_abs = nodetr::tensor::mean_abs_diff(reference, approx);
  e.max_abs = nodetr::tensor::max_abs_diff(reference, approx);
  return e;
}

}  // namespace nodetr::fx
