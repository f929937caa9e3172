#include "nodetr/fx/qmhsa.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "convert.hpp"
#include "nodetr/tensor/arena.hpp"
#include "qkernels.hpp"

namespace nodetr::fx {

namespace {

using detail::narrow;
using detail::wide_t;
using nodetr::tensor::ScratchArena;

/// int64 codes per 256-bit vector. The K, R and V panels are padded to a
/// multiple, so every vector load is whole and no column tail is scalar.
constexpr index_t kLanes = 4;

index_t pad_lanes(index_t n) { return (n + kLanes - 1) / kLanes * kLanes; }

/// One head of one image: where its operands live, and the integer steps
/// between them.
struct Head {
  const std::int64_t* q;  ///< row i of Q_h at q + i * q_stride (dh codes)
  index_t q_stride;
  const std::int64_t* k;  ///< K_h^T, (dh, npad)
  const std::int64_t* r;  ///< R_h^T, (dh, npad), or null for no R_h
  const std::int64_t* v;  ///< V_h, (n, dhp)
  std::int64_t* out;      ///< row i of the output at out + i * out_stride (dh codes)
  index_t out_stride;
  index_t n, npad, dh, dhp;
  FixedFormat ff;
  int ff2;      ///< fractional bits of a feature x feature product
  int qr_frac;  ///< fractional bits of a Q_h R_h^T product
  std::int64_t qs;  ///< the scale constant's code
  bool qk64, qr64;  ///< the int64 proofs of Q_h K_h^T and Q_h R_h^T
  bool scale64;     ///< ff fits 32 bits: scores and qs fit int32, their product int64
};

// ---- portable form ------------------------------------------------------------

/// acc[j] = sum_c q[c] * panel[c * cols + j], j in [0, cols), in axpy order.
template <typename Acc>
void row_sums(const std::int64_t* q, index_t terms, const std::int64_t* panel, index_t cols,
              Acc* acc) {
  std::fill(acc, acc + cols, Acc{0});
  for (index_t c = 0; c < terms; ++c) {
    const Acc qc = q[c];
    const std::int64_t* p = panel + c * cols;
    for (index_t j = 0; j < cols; ++j) acc[j] += qc * p[j];
  }
}

/// row_sums, then each sum rounded from `frac` into `ff`; int64 when
/// `int64_ok`, __int128 otherwise.
void narrowed_sums(const std::int64_t* q, index_t terms, const std::int64_t* panel,
                   index_t cols, bool int64_ok, int frac, const FixedFormat& ff,
                   std::int64_t* acc64, wide_t* accw, std::int64_t* dst) {
  if (int64_ok) {
    row_sums(q, terms, panel, cols, acc64);
    for (index_t j = 0; j < cols; ++j) dst[j] = narrow(acc64[j], frac, ff);
  } else {
    row_sums(q, terms, panel, cols, accw);
    for (index_t j = 0; j < cols; ++j) dst[j] = narrow(accw[j], frac, ff);
  }
}

/// Per-row scratch of the portable form.
struct Scratch {
  std::int64_t* l;      ///< narrowed Q_h K_h^T row (npad)
  std::int64_t* rr;     ///< narrowed Q_h R_h^T row (npad)
  std::int64_t* acc64;  ///< max(npad, dhp)
  wide_t* accw;         ///< max(npad, dhp)
};

/// Scores row i into a[0, npad): qadd's saturating add of the two narrowed
/// sums, qscale's constant multiply and narrow, then qrelu. Padding columns
/// have zero sums, so their scores are zero.
void scores_portable(const Head& h, index_t i, std::int64_t* a, const Scratch& s) {
  const std::int64_t* q = h.q + i * h.q_stride;
  narrowed_sums(q, h.dh, h.k, h.npad, h.qk64, h.ff2, h.ff, s.acc64, s.accw, s.l);
  if (h.r) narrowed_sums(q, h.dh, h.r, h.npad, h.qr64, h.qr_frac, h.ff, s.acc64, s.accw, s.rr);
  for (index_t j = 0; j < h.npad; ++j) {
    const std::int64_t t = h.r ? saturate(s.l[j] + s.rr[j], h.ff) : s.l[j];
    const std::int64_t u = h.scale64 ? narrow(t * h.qs, h.ff2, h.ff)
                                     : narrow(static_cast<wide_t>(t) * h.qs, h.ff2, h.ff);
    a[j] = u > 0 ? u : 0;
  }
}

/// Output row i = a * V_h rounded into the head's columns.
void av_portable(const Head& h, index_t i, const std::int64_t* a, bool int64_ok,
                 const Scratch& s) {
  narrowed_sums(a, h.n, h.v, h.dhp, int64_ok, h.ff2, h.ff, s.acc64, s.accw, s.l);
  std::copy(s.l, s.l + h.dh, h.out + i * h.out_stride);
}

// ---- AVX2 form ----------------------------------------------------------------

#if defined(__x86_64__) || defined(__i386__)

/// The epilogue constants of one head, broadcast once.
struct Epilogue {
  detail::Narrow4 ff2;  ///< from a feature product into ff (scores, scale, A V_h)
  detail::Narrow4 qr;   ///< from a Q_h R_h^T product into ff
  __m256i qs;
};

__attribute__((target("avx2"))) Epilogue make_epilogue(const Head& h) {
  return {detail::make_narrow4(h.ff2, h.ff), detail::make_narrow4(h.qr_frac, h.ff),
          _mm256_set1_epi64x(h.qs)};
}

/// Scores of row q over columns [j0, j0 + 4V): both sums in registers
/// (vpmuldq: every code is proven to fit int32), then the portable epilogue's
/// steps four lanes at a time.
template <int V, bool Rel>
__attribute__((target("avx2"))) void scores_tile(const Head& h, const Epilogue& e,
                                                 const std::int64_t* q, index_t j0,
                                                 std::int64_t* a) {
  __m256i sk[V], sr[V];
  for (int v = 0; v < V; ++v) sk[v] = sr[v] = _mm256_setzero_si256();
  for (index_t c = 0; c < h.dh; ++c) {
    const __m256i qc = _mm256_set1_epi64x(q[c]);
    const auto* kr = reinterpret_cast<const __m256i*>(h.k + c * h.npad + j0);
    for (int v = 0; v < V; ++v) {
      sk[v] = _mm256_add_epi64(sk[v], _mm256_mul_epi32(qc, _mm256_loadu_si256(kr + v)));
    }
    if constexpr (Rel) {
      const auto* rr = reinterpret_cast<const __m256i*>(h.r + c * h.npad + j0);
      for (int v = 0; v < V; ++v) {
        sr[v] = _mm256_add_epi64(sr[v], _mm256_mul_epi32(qc, _mm256_loadu_si256(rr + v)));
      }
    }
  }
  const __m256i zero = _mm256_setzero_si256();
  for (int v = 0; v < V; ++v) {
    __m256i t = detail::narrow4(sk[v], e.ff2);
    if constexpr (Rel) {
      t = detail::clamp4(_mm256_add_epi64(t, detail::narrow4(sr[v], e.qr)), e.ff2.lo, e.ff2.hi);
    }
    t = detail::narrow4(_mm256_mul_epi32(t, e.qs), e.ff2);
    t = _mm256_and_si256(t, _mm256_cmpgt_epi64(t, zero));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j0 + kLanes * v), t);
  }
}

template <bool Rel>
__attribute__((target("avx2"))) void scores_avx2(const Head& h, const Epilogue& e, index_t i,
                                                 std::int64_t* a) {
  const std::int64_t* q = h.q + i * h.q_stride;
  index_t j0 = 0;
  for (; j0 + 4 * kLanes <= h.npad; j0 += 4 * kLanes) scores_tile<4, Rel>(h, e, q, j0, a);
  switch ((h.npad - j0) / kLanes) {
    case 3: scores_tile<3, Rel>(h, e, q, j0, a); break;
    case 2: scores_tile<2, Rel>(h, e, q, j0, a); break;
    case 1: scores_tile<1, Rel>(h, e, q, j0, a); break;
    default: break;
  }
}

/// Output columns [c0, c0 + 4V) of row i: a * V_h, rounded and stored; the
/// head's last partial vector is stored under a mask.
template <int V>
__attribute__((target("avx2"))) void av_tile(const Head& h, const Epilogue& e,
                                             const std::int64_t* a, index_t c0,
                                             std::int64_t* dst) {
  __m256i acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm256_setzero_si256();
  for (index_t j = 0; j < h.n; ++j) {
    const __m256i aj = _mm256_set1_epi64x(a[j]);
    const auto* vr = reinterpret_cast<const __m256i*>(h.v + j * h.dhp + c0);
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_add_epi64(acc[v], _mm256_mul_epi32(aj, _mm256_loadu_si256(vr + v)));
    }
  }
  for (int v = 0; v < V; ++v) {
    const index_t col = c0 + kLanes * v;
    const __m256i r = detail::narrow4(acc[v], e.ff2);
    if (col + kLanes <= h.dh) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + col), r);
    } else {
      const __m256i mask = _mm256_cmpgt_epi64(_mm256_set1_epi64x(h.dh - col),
                                              _mm256_setr_epi64x(0, 1, 2, 3));
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(dst + col), mask, r);
    }
  }
}

__attribute__((target("avx2"))) void av_avx2(const Head& h, const Epilogue& e, index_t i,
                                             const std::int64_t* a) {
  std::int64_t* dst = h.out + i * h.out_stride;
  index_t c0 = 0;
  for (; c0 + 4 * kLanes <= h.dhp; c0 += 4 * kLanes) av_tile<4>(h, e, a, c0, dst);
  switch ((h.dhp - c0) / kLanes) {
    case 3: av_tile<3>(h, e, a, c0, dst); break;
    case 2: av_tile<2>(h, e, a, c0, dst); break;
    case 1: av_tile<1>(h, e, a, c0, dst); break;
    default: break;
  }
}

#endif

/// One fused pass over head `h`: per query row, its scores then its A V_h
/// row. Returns how many of the head's products ran in __int128.
int run_head(const Head& h, KernelForm form, std::int64_t* a, const Scratch& s,
             std::uint64_t vmax) {
  // A's codes are ReLU outputs in ff, so raw_max() bounds them; only when
  // that bound fails does a row prove A V_h from its own largest code.
  const auto amax_bound = static_cast<std::uint64_t>(h.ff.raw_max());
  const bool v32 = detail::fits_int32(vmax);
  const auto av_proof = [&](std::uint64_t amax) {
    return v32 && detail::fits_int32(amax) &&
           detail::fits_int64(amax, vmax, h.n, 0, h.ff2 - h.ff.frac_bits());
  };
  const bool av_all = av_proof(amax_bound);
  bool av_wide = false;
#if defined(__x86_64__) || defined(__i386__)
  // vpmuldq multiplies int32 halves, so the scale step needs scale64; and
  // every rounding must be one narrow4() can do.
  const bool avx2 = form == KernelForm::kAvx2 && h.scale64 && detail::narrow4_fits(h.ff2, h.ff) &&
                    (!h.r || detail::narrow4_fits(h.qr_frac, h.ff));
  const bool avx2_scores = avx2 && h.qk64 && h.qr64;
  const Epilogue e = avx2 ? make_epilogue(h) : Epilogue{};
#else
  (void)form;
#endif
  for (index_t i = 0; i < h.n; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    if (avx2_scores) {
      h.r ? scores_avx2<true>(h, e, i, a) : scores_avx2<false>(h, e, i, a);
    } else {
      scores_portable(h, i, a, s);
    }
#else
    scores_portable(h, i, a, s);
#endif
    bool av64 = av_all;
    if (!av64) {
      av64 = av_proof(static_cast<std::uint64_t>(*std::max_element(a, a + h.n)));
      av_wide = av_wide || !av64;
    }
#if defined(__x86_64__) || defined(__i386__)
    if (avx2 && av64) {
      av_avx2(h, e, i, a);
      continue;
    }
#endif
    av_portable(h, i, a, av64, s);
  }
  return (h.qk64 ? 0 : 1) + (h.r && !h.qr64 ? 1 : 0) + (av_wide ? 1 : 0);
}

/// int64 words per 64-byte line: each part of the scratch starts on one.
constexpr index_t kLineWords = 8;

index_t line_words(index_t words) { return (words + kLineWords - 1) / kLineWords * kLineWords; }

/// One image's scratch, carved from one block of int64 words.
struct ImageScratch {
  std::int64_t* qkv;  ///< Q | K | V, (tokens, 3 dim)
  std::int64_t* kp;   ///< K_h^T, (dh, npad)
  std::int64_t* vp;   ///< V_h, (tokens, dhp)
  std::int64_t* a;    ///< one row of A (npad)
  Scratch s;

  /// Each part's words, in carving order (a wide_t is two words).
  static std::array<index_t, 8> parts(index_t n, index_t d, index_t dh) {
    const index_t npad = pad_lanes(n), dhp = pad_lanes(dh), width = std::max(npad, dhp);
    return {n * 3 * d, dh * npad, n * dhp, npad, width, width, width, 2 * width};
  }
  static index_t words(index_t n, index_t d, index_t dh) {
    index_t total = 0;
    for (const index_t p : parts(n, d, dh)) total += line_words(p);
    return total;
  }
  ImageScratch(std::int64_t* base, index_t n, index_t d, index_t dh) {
    std::int64_t* at[8];
    for (int i = 0; const index_t p : parts(n, d, dh)) {
      at[i++] = base;
      base += line_words(p);
    }
    qkv = at[0];
    kp = at[1];
    vp = at[2];
    a = at[3];
    s = {at[4], at[5], at[6], reinterpret_cast<wide_t*>(at[7])};
  }
};

}  // namespace

QMhsa::QMhsa(const FixedTensor& wq, const FixedTensor& wk, const FixedTensor& wv,
             const std::vector<FixedTensor>& rel, const FixedTensor& ln_gamma,
             const FixedTensor& ln_beta, index_t heads, index_t tokens, FixedFormat feature,
             float scale)
    : dim_(wq.shape().dim(0)), heads_(heads), tokens_(tokens), feature_(feature),
      scale_code_(quantize(scale, feature)) {
  const Shape square{dim_, dim_};
  if (wq.shape() != square || wk.shape() != square || wv.shape() != square) {
    throw std::invalid_argument("QMhsa: projections must be (dim, dim)");
  }
  if (!(wk.format() == wq.format()) || !(wv.format() == wq.format())) {
    throw std::invalid_argument("QMhsa: projections must share one format");
  }
  if (heads < 1 || dim_ % heads != 0 || tokens < 1) {
    throw std::invalid_argument("QMhsa: heads must divide dim, tokens must be >= 1");
  }
  if (ln_gamma.numel() != ln_beta.numel() || (!ln_gamma.empty() && ln_gamma.numel() != dim_)) {
    throw std::invalid_argument("QMhsa: LayerNorm gain and bias must be (dim) or empty");
  }
  FixedTensor wqkv(Shape{dim_, 3 * dim_}, wq.format());
  const FixedTensor* parts[] = {&wq, &wk, &wv};
  for (index_t r = 0; r < dim_; ++r) {
    for (index_t p = 0; p < 3; ++p) {
      std::copy(parts[p]->raw() + r * dim_, parts[p]->raw() + (r + 1) * dim_,
                wqkv.raw() + r * 3 * dim_ + p * dim_);
    }
  }
  wqkv_ = PackedB::from_kn(wqkv);
  if (!ln_gamma.empty()) {
    ln_g_.resize(static_cast<std::size_t>(dim_));
    ln_b_.resize(static_cast<std::size_t>(dim_));
    detail::layernorm_params(ln_gamma, ln_beta, ln_g_.data(), ln_b_.data());
  }
  if (rel.empty()) return;
  const index_t dh = dim_ / heads, npad = pad_lanes(tokens);
  if (static_cast<index_t>(rel.size()) != heads) {
    throw std::invalid_argument("QMhsa: need one R_h per head");
  }
  rel_format_ = rel.front().format();
  rel_.assign(static_cast<std::size_t>(heads * dh * npad), 0);
  for (index_t h = 0; h < heads; ++h) {
    const FixedTensor& r = rel[static_cast<std::size_t>(h)];
    if (r.shape() != Shape{tokens, dh} || !(r.format() == rel_format_)) {
      throw std::invalid_argument("QMhsa: R_h must be (tokens, dim / heads), one format");
    }
    std::int64_t* panel = rel_.data() + h * dh * npad;
    for (index_t j = 0; j < tokens; ++j) {
      for (index_t c = 0; c < dh; ++c) panel[c * npad + j] = r[j * dh + c];
    }
    rel_max_.push_back(detail::max_abs(r.raw(), r.numel()));
  }
}

FixedTensor QMhsa::run(const FixedTensor& x, KernelForm form) const {
  if (x.shape().rank() != 2 || x.shape().dim(1) != dim_ || x.shape().dim(0) % tokens_ != 0) {
    throw std::invalid_argument("QMhsa::run: x must be (images * tokens, dim)");
  }
  FixedTensor out(x.shape(), feature_);
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  std::int64_t* scratch = arena.alloc<std::int64_t>(static_cast<std::size_t>(scratch_words()));
  const index_t image = tokens_ * dim_;
  for (index_t s = 0; s < x.shape().dim(0) / tokens_; ++s) {
    run_image(x.raw() + s * image, x.format().frac_bits(), out.raw() + s * image, scratch, form);
  }
  return out;
}

void QMhsa::run_maps(const float* x, index_t images, float* y) const {
  const index_t d = dim_, n = tokens_;
  // One allocation per call: the image's codes (overwritten by its output)
  // and run_image()'s scratch.
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  const index_t image = line_words(n * d);
  const auto words = static_cast<std::size_t>(image + scratch_words());
  std::int64_t* codes = arena.alloc<std::int64_t>(words);
  const double res = feature_.resolution();
  for (index_t s = 0; s < images; ++s) {
    const float* src = x + s * d * n;
    for (index_t c = 0; c < d; ++c) {
      for (index_t t = 0; t < n; ++t) {
        codes[t * d + c] = detail::quantize(src[c * n + t], feature_);
      }
    }
    run_image(codes, feature_.frac_bits(), codes, codes + image, kernel_forms().front());
    float* dst = y + s * d * n;
    for (index_t t = 0; t < n; ++t) {
      for (index_t c = 0; c < d; ++c) dst[c * n + t] = detail::dequantize(codes[t * d + c], res);
    }
  }
}

index_t QMhsa::scratch_words() const {
  return ImageScratch::words(tokens_, dim_, dim_ / heads_);
}

void QMhsa::run_image(const std::int64_t* x, int x_frac, std::int64_t* out,
                      std::int64_t* scratch, KernelForm form) const {
  const index_t d = dim_, d3 = 3 * dim_, n = tokens_;
  const index_t dh = d / heads_, npad = pad_lanes(n), dhp = pad_lanes(dh);
  const FixedFormat ff = feature_;
  const ImageScratch w(scratch, n, d, dh);
  // Q | K | V of every token, in one product.
  detail::qgemm(x, n, wqkv_, w.qkv, ff, x_frac + wqkv_.format().frac_bits(), form,
                /*fork=*/false);
  // Padding columns of K_h^T and V_h are never written, so they stay zero.
  std::fill(w.kp, w.kp + dh * npad, 0);
  std::fill(w.vp, w.vp + n * dhp, 0);

  int wide = 0;
  for (index_t hd = 0; hd < heads_; ++hd) {
    // Q_h is read in place; K_h^T and V_h are packed into the panels.
    std::uint64_t qmax = 0, kmax = 0, vmax = 0;
    for (index_t j = 0; j < n; ++j) {
      const std::int64_t* row = w.qkv + j * d3 + hd * dh;
      qmax = std::max(qmax, detail::max_abs(row, dh));
      kmax = std::max(kmax, detail::max_abs(row + d, dh));
      vmax = std::max(vmax, detail::max_abs(row + 2 * d, dh));
      for (index_t c = 0; c < dh; ++c) w.kp[c * npad + j] = row[d + c];
      std::copy(row + 2 * d, row + 2 * d + dh, w.vp + j * dhp);
    }
    const bool q32 = detail::fits_int32(qmax);
    const std::uint64_t rmax = rel_.empty() ? 0 : rel_max_[static_cast<std::size_t>(hd)];
    const int qr_frac = ff.frac_bits() + rel_format_.frac_bits();
    const Head h{
        .q = w.qkv + hd * dh,
        .q_stride = d3,
        .k = w.kp,
        .r = rel_.empty() ? nullptr : rel_.data() + hd * dh * npad,
        .v = w.vp,
        .out = out + hd * dh,
        .out_stride = d,
        .n = n,
        .npad = npad,
        .dh = dh,
        .dhp = dhp,
        .ff = ff,
        .ff2 = 2 * ff.frac_bits(),
        .qr_frac = qr_frac,
        .qs = scale_code_,
        .qk64 = q32 && detail::fits_int32(kmax) &&
                detail::fits_int64(qmax, kmax, dh, 0, ff.frac_bits()),
        .qr64 = rel_.empty() || (q32 && detail::fits_int32(rmax) &&
                                 detail::fits_int64(qmax, rmax, dh, 0, qr_frac - ff.frac_bits())),
        .scale64 = ff.total_bits <= 32,
    };
    wide += run_head(h, form, w.a, w.s, vmax);
  }
  for (int i = 0; i < wide; ++i) detail::count_wide_fallback();
  if (!ln_g_.empty()) {
    detail::layernorm_rows(out, n, d, ff, ln_g_.data(), ln_b_.data(), kLayerNormEps, out, form);
  }
}

}  // namespace nodetr::fx
