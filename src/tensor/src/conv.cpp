#include "nodetr/tensor/conv.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "nodetr/tensor/arena.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nodetr::tensor {

namespace {

void check_input(const Tensor& x, const Conv2dGeom& g, const char* who) {
  if (x.rank() != 4) throw std::invalid_argument(std::string(who) + ": input rank must be 4");
  if (x.dim(1) != g.in_channels) {
    throw std::invalid_argument(std::string(who) + ": channel mismatch");
  }
}

constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// First output index whose receptive field at kernel offset `kk` starts
/// inside [0, extent), and one past the last.
struct ValidRange {
  index_t lo, hi;
};
ValidRange valid_out_range(index_t extent, index_t out, index_t stride, index_t pad,
                           index_t kk) {
  // in = out * stride + kk - pad must land in [0, extent)
  const index_t lo = std::min(out, std::max<index_t>(0, ceil_div(pad - kk, stride)));
  const index_t hi = std::clamp<index_t>(ceil_div(extent - kk + pad, stride), lo, out);
  return {lo, hi};
}

/// Interior output rows/cols where the whole K x K window is in bounds: the
/// intersection of the valid ranges of the first and last kernel offsets.
ValidRange interior_range(index_t extent, index_t out, index_t stride, index_t pad,
                          index_t kernel) {
  const ValidRange first = valid_out_range(extent, out, stride, pad, 0);
  const ValidRange last = valid_out_range(extent, out, stride, pad, kernel - 1);
  const index_t lo = std::max(first.lo, last.lo);
  return {lo, std::max(lo, std::min(first.hi, last.hi))};
}

/// One fully-in-bounds K x K correlation at (iy, ix) = window origin.
float dw_dot_n(const float* src, index_t w, const float* ker, index_t kernel) {
  float acc = 0.0f;
  for (index_t ky = 0; ky < kernel; ++ky) {
    const float* row = src + ky * w;
    for (index_t kx = 0; kx < kernel; ++kx) acc += ker[ky * kernel + kx] * row[kx];
  }
  return acc;
}

/// Whether a plane may run through the zero-framed copy: the 3x3 stride-1
/// pad-1 geometry, a +0 bias and nine finite taps. Then every partial sum of
/// a cell starts at +0 and is never -0 (round to nearest), so a padding
/// product (a finite tap times 0, +-0) leaves it unchanged, and the bias add
/// `+0 + acc` is `acc`: each cell is bit for bit the bias plus its in-bounds
/// taps, or `b + (0 + k0*x0 + ... + k8*x8)` inside. An infinite or NaN tap
/// would make a padding product NaN, and a -0 bias start would turn +0; such
/// planes take the generic path.
bool dw3_padded(const Conv2dGeom& g, const float* ker, float b) {
  if (g.kernel != 3 || g.stride != 1 || g.pad != 1) return false;
  if (std::bit_cast<std::uint32_t>(b) != 0) return false;
  return std::all_of(ker, ker + 9, [](float k) { return std::isfinite(k); });
}

/// The calling thread's depthwise scratch plane, at least `n` floats. The
/// buffer is kept per thread and grows to the largest plane the thread has
/// run, so a warm call allocates nothing. It is not taken from the
/// ScratchArena: that made the batch-1 fork the first user of the pool
/// workers' arenas, which moved glibc's heap placement and read about +6%
/// peak RSS (DESIGN.md).
float* plane_scratch(index_t n) {
  thread_local std::vector<float> buf;
  if (buf.size() < static_cast<std::size_t>(n)) buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}

/// dst[i] = relu(bn(src[i])) for i < n: the BN-then-ReLU prologue.
void bn_relu_run(const float* __restrict__ src, index_t n, BnChannel bn,
                 float* __restrict__ dst) {
  for (index_t i = 0; i < n; ++i) dst[i] = relu(bn(src[i]));
}

/// `src` (h x w) copied into the calling thread's (h + 2) x (w + 2) scratch
/// plane inside a zero frame; with a prologue `pre`, each value goes in as
/// relu(pre(v)) instead.
const float* dw3_pad_copy(const float* src, index_t h, index_t w, const BnChannel* pre) {
  const index_t pw = w + 2;
  float* pad = plane_scratch((h + 2) * pw);
  std::fill_n(pad, pw, 0.0f);
  for (index_t y = 0; y < h; ++y) {
    float* row = pad + (y + 1) * pw;
    row[0] = 0.0f;
    if (pre != nullptr) {
      bn_relu_run(src + y * w, w, *pre, row + 1);
    } else {
      std::copy_n(src + y * w, w, row + 1);
    }
    row[w + 1] = 0.0f;
  }
  std::fill_n(pad + (h + 1) * pw, pw, 0.0f);
  return pad;
}

/// One 3x3 stride-1 plane (h x w outputs) from its zero-framed copy `pad`
/// (row stride w + 2): every cell is `0 + k0*x0 + ... + k8*x8` over the nine
/// padded taps in row-major order, multiply and add kept separate.
using Dw3PlaneFn = void (*)(const float* pad, index_t h, index_t w, const float* ker,
                            float* dst);

/// N adjacent cells (columns x .. x + N - 1) of output row y.
template <int N>
void dw3_plane_cols(const float* pad, index_t w, index_t y, index_t x, const float* ker,
                    float* dst) {
  float acc[N] = {};
  for (int ky = 0; ky < 3; ++ky) {
    const float* row = pad + (y + ky) * (w + 2) + x;
    for (int kx = 0; kx < 3; ++kx) {
      const float kv = ker[ky * 3 + kx];
      for (int j = 0; j < N; ++j) acc[j] += kv * row[kx + j];
    }
  }
  std::copy_n(acc, N, dst + y * w + x);
}

/// Portable plane, one output row per pass: 16 and 8 columns at a time, the
/// tail as the last 8 cells (recomputing a cell writes the same bits),
/// single cells below 8 columns. Compiled for SSE, a pass over two rows
/// spills its sums and ran slower than one row at a time.
void dw3_plane(const float* pad, index_t h, index_t w, const float* ker, float* dst) {
  for (index_t y = 0; y < h; ++y) {
    index_t j = 0;
    for (; j + 16 <= w; j += 16) dw3_plane_cols<16>(pad, w, y, j, ker, dst);
    for (; j + 8 <= w; j += 8) dw3_plane_cols<8>(pad, w, y, j, ker, dst);
    if (j < w && w >= 8) {
      dw3_plane_cols<8>(pad, w, y, w - 8, ker, dst);
      j = w;
    }
    for (; j < w; ++j) dw3_plane_cols<1>(pad, w, y, j, ker, dst);
  }
}

#if defined(__x86_64__) || defined(__i386__)

/// `acc + k0*v0 + k1*v1 + k2*v2`: one padded row's taps, in kx order.
__attribute__((target("avx2"), always_inline)) inline __m256 dw3_taps(__m256 acc, __m256 k0,
                                                                      __m256 k1, __m256 k2,
                                                                      __m256 v0, __m256 v1,
                                                                      __m256 v2) {
  acc = _mm256_add_ps(acc, _mm256_mul_ps(k0, v0));
  acc = _mm256_add_ps(acc, _mm256_mul_ps(k1, v1));
  return _mm256_add_ps(acc, _mm256_mul_ps(k2, v2));
}

/// `dw3_plane` with each 8 columns one __m256: the same products summed in
/// the same order, so the same bits. Two output rows go per pass, then an
/// odd last row alone: each padded row is loaded once and feeds both rows'
/// sums. No multiply and add may be contracted into an FMA: the plane is
/// compiled for AVX2 without FMA, and this file with -ffp-contract=off for
/// builds whose base target has FMA.
__attribute__((target("avx2"))) void dw3_plane_avx2(const float* pad, index_t h, index_t w,
                                                    const float* ker, float* dst) {
  if (w < 8) {
    dw3_plane(pad, h, w, ker, dst);
    return;
  }
  const index_t pw = w + 2;
  // Named taps, not an array: they stay in registers.
  const __m256 k0 = _mm256_set1_ps(ker[0]), k1 = _mm256_set1_ps(ker[1]),
               k2 = _mm256_set1_ps(ker[2]), k3 = _mm256_set1_ps(ker[3]),
               k4 = _mm256_set1_ps(ker[4]), k5 = _mm256_set1_ps(ker[5]),
               k6 = _mm256_set1_ps(ker[6]), k7 = _mm256_set1_ps(ker[7]),
               k8 = _mm256_set1_ps(ker[8]);
  index_t y = 0;
  for (; y + 2 <= h; y += 2) {
    for (index_t j = 0; j < w; j += 8) {
      const index_t x = std::min(j, w - 8);  // the tail as the last 8 cells
      const float* r = pad + y * pw + x;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      a0 = dw3_taps(a0, k0, k1, k2, _mm256_loadu_ps(r), _mm256_loadu_ps(r + 1),
                    _mm256_loadu_ps(r + 2));
      r += pw;
      __m256 v0 = _mm256_loadu_ps(r), v1 = _mm256_loadu_ps(r + 1), v2 = _mm256_loadu_ps(r + 2);
      a0 = dw3_taps(a0, k3, k4, k5, v0, v1, v2);
      a1 = dw3_taps(a1, k0, k1, k2, v0, v1, v2);
      r += pw;
      v0 = _mm256_loadu_ps(r), v1 = _mm256_loadu_ps(r + 1), v2 = _mm256_loadu_ps(r + 2);
      a0 = dw3_taps(a0, k6, k7, k8, v0, v1, v2);
      a1 = dw3_taps(a1, k3, k4, k5, v0, v1, v2);
      r += pw;
      a1 = dw3_taps(a1, k6, k7, k8, _mm256_loadu_ps(r), _mm256_loadu_ps(r + 1),
                    _mm256_loadu_ps(r + 2));
      _mm256_storeu_ps(dst + y * w + x, a0);
      _mm256_storeu_ps(dst + (y + 1) * w + x, a1);
    }
  }
  if (y < h) {
    for (index_t j = 0; j < w; j += 8) {
      const index_t x = std::min(j, w - 8);
      const float* r = pad + y * pw + x;
      __m256 a = _mm256_setzero_ps();
      a = dw3_taps(a, k0, k1, k2, _mm256_loadu_ps(r), _mm256_loadu_ps(r + 1),
                   _mm256_loadu_ps(r + 2));
      r += pw;
      a = dw3_taps(a, k3, k4, k5, _mm256_loadu_ps(r), _mm256_loadu_ps(r + 1),
                   _mm256_loadu_ps(r + 2));
      r += pw;
      a = dw3_taps(a, k6, k7, k8, _mm256_loadu_ps(r), _mm256_loadu_ps(r + 1),
                   _mm256_loadu_ps(r + 2));
      _mm256_storeu_ps(dst + y * w + x, a);
    }
  }
}

#endif

/// The 3x3 stride-1 plane for this process: the AVX2 one when the GEMM runs
/// an AVX2 microkernel (so the host has AVX2), the portable one otherwise. A
/// pinned `scalar_4x8` GEMM config therefore runs the portable plane.
Dw3PlaneFn dw3_plane_for_host() {
#if defined(__x86_64__) || defined(__i386__)
  if (std::string_view(tune::gemm_config().kernel->name).starts_with("avx2_")) {
    return dw3_plane_avx2;
  }
#endif
  return dw3_plane;
}

/// One depthwise output plane (ho x wo) of `src` (h x w) with the K x K
/// kernel `ker` and bias `b`, reading relu(pre(src)) when the prologue `pre`
/// is given. A plane that `dw3_padded` admits runs through its zero-framed
/// copy in `plane3`. Otherwise the prologue first goes into the thread's
/// scratch plane, and a cell whose window leaves the input adds its
/// in-bounds taps, in row-major order, onto the bias, and an interior cell
/// adds the bias to the full-window dot.
void depthwise_plane(const float* src, index_t h, index_t w, const float* ker, float b,
                     const Conv2dGeom& g, Dw3PlaneFn plane3, const BnChannel* pre, float* dst) {
  if (dw3_padded(g, ker, b)) {
    plane3(dw3_pad_copy(src, h, w, pre), h, w, ker, dst);
    return;
  }
  if (pre != nullptr) {
    float* t = plane_scratch(h * w);
    bn_relu_run(src, h * w, *pre, t);
    src = t;
  }
  const index_t k = g.kernel;
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const ValidRange ix_r = interior_range(w, wo, g.stride, g.pad, k);
  for (index_t oy = 0; oy < ho; ++oy) {
    // Window rows [ky_lo, ky_hi) of this output row lie inside the input.
    const index_t y0 = oy * g.stride - g.pad;
    const index_t ky_lo = std::max<index_t>(0, -y0), ky_hi = std::min(k, h - y0);
    float* drow = dst + oy * wo;
    auto edge_cell = [&](index_t ox) {
      const index_t x0 = ox * g.stride - g.pad;
      const index_t kx_lo = std::max<index_t>(0, -x0), kx_hi = std::min(k, w - x0);
      float acc = b;
      for (index_t ky = ky_lo; ky < ky_hi; ++ky) {
        for (index_t kx = kx_lo; kx < kx_hi; ++kx) {
          acc += ker[ky * k + kx] * src[(y0 + ky) * w + x0 + kx];
        }
      }
      drow[ox] = acc;
    };
    for (index_t ox = 0; ox < ix_r.lo; ++ox) edge_cell(ox);
    if (ky_lo == 0 && ky_hi == k) {
      // Interior row: the whole window is in bounds, no checks.
      for (index_t ox = ix_r.lo; ox < ix_r.hi; ++ox) {
        drow[ox] = b + dw_dot_n(src + y0 * w + ox * g.stride - g.pad, w, ker, k);
      }
    } else {
      for (index_t ox = ix_r.lo; ox < ix_r.hi; ++ox) edge_cell(ox);
    }
    for (index_t ox = ix_r.hi; ox < wo; ++ox) edge_cell(ox);
  }
}

}  // namespace

void im2col(const float* img, index_t channels, index_t h, index_t w, const Conv2dGeom& g,
            float* col) {
  const index_t cols = g.out_extent(h) * g.out_extent(w);
  im2col_block(img, h, w, g, 0, channels * g.kernel * g.kernel, 0, cols, col, cols);
}

void im2col_block(const float* img, index_t h, index_t w, const Conv2dGeom& g, index_t row0,
                  index_t rows, index_t col0, index_t cols, float* dst, index_t ld) {
  const index_t k = g.kernel, wo = g.out_extent(w);
  // The block's columns walk the output plane row by row from (oy0, ox0).
  const index_t oy0 = col0 / wo, ox0 = col0 % wo;
  // Row r is input channel c at kernel tap (ky, kx).
  index_t c = row0 / (k * k), ky = row0 / k % k, kx = row0 % k;
  for (index_t r = 0; r < rows; ++r) {
    const float* src = img + c * h * w;
    float* drow = dst + r * ld;
    // One output row's run of columns [ox, ox + len) per pass; d[t] is
    // output column ox + t, and [lo, hi) of them read inside the input row.
    // A GEMM panel is a few runs, so the bounds avoid divisions unless a
    // run crosses the plane's edge.
    index_t oy = oy0, ox = ox0;
    for (index_t j = 0; j < cols; ++oy, ox = 0) {
      const index_t len = std::min(cols - j, wo - ox);
      float* d = drow + j;
      j += len;
      const index_t iy = oy * g.stride + ky - g.pad;
      if (iy < 0 || iy >= h) {
        std::fill_n(d, len, 0.0f);
        continue;
      }
      const index_t ix0 = ox * g.stride + kx - g.pad;
      const index_t ix_last = ix0 + (len - 1) * g.stride;
      const index_t lo = ix0 < 0 ? std::min(len, ceil_div(-ix0, g.stride)) : 0;
      const index_t hi =
          ix_last >= w ? std::max(lo, len - ceil_div(ix_last - w + 1, g.stride)) : len;
      std::fill(d, d + lo, 0.0f);
      if (lo < hi) {
        const float* s = src + iy * w + ix0 + lo * g.stride;
        if (g.stride == 1) {
          std::copy(s, s + (hi - lo), d + lo);
        } else {
          for (index_t t = lo; t < hi; ++t) d[t] = s[(t - lo) * g.stride];
        }
      }
      std::fill(d + hi, d + len, 0.0f);
    }
    if (++kx == k) {
      kx = 0;
      if (++ky == k) {
        ky = 0;
        ++c;
      }
    }
  }
}

void col2im(const float* col, index_t channels, index_t h, index_t w, const Conv2dGeom& g,
            float* img) {
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const index_t plane = ho * wo;
  index_t row = 0;
  for (index_t c = 0; c < channels; ++c) {
    float* dst = img + c * h * w;
    for (index_t ky = 0; ky < g.kernel; ++ky) {
      const ValidRange ry = valid_out_range(h, ho, g.stride, g.pad, ky);
      for (index_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const ValidRange rx = valid_out_range(w, wo, g.stride, g.pad, kx);
        const float* src = col + row * plane;
        for (index_t oy = ry.lo; oy < ry.hi; ++oy) {
          const index_t iy = oy * g.stride + ky - g.pad;
          const float* srow = src + oy * wo;
          float* drow = dst + iy * w + rx.lo * g.stride + kx - g.pad;
          if (g.stride == 1) {
            for (index_t ox = rx.lo; ox < rx.hi; ++ox) drow[ox - rx.lo] += srow[ox];
          } else {
            for (index_t ox = rx.lo; ox < rx.hi; ++ox) {
              drow[(ox - rx.lo) * g.stride] += srow[ox];
            }
          }
        }
      }
    }
  }
}

Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias, const Conv2dGeom& g) {
  check_input(x, g, "conv2d");
  const index_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const index_t krows = g.in_channels * g.kernel * g.kernel;
  Tensor out(Shape{n, g.out_channels, ho, wo});
  GemmEpilogue ep;
  ep.bias_row = bias.empty() ? nullptr : bias.data();  // one output channel per C row
  // A 1x1 stride-1 unpadded conv's columns are the input plane itself; any
  // other geometry's B panels are gathered from the planes by the GEMM's own
  // (parallel, at batch 1) B pack.
  const bool pointwise = g.kernel == 1 && g.stride == 1 && g.pad == 0;
  parallel_for(0, n, [&](index_t lo, index_t hi) {
    for (index_t s = lo; s < hi; ++s) {
      const float* img = x.data() + s * g.in_channels * h * w;
      const GemmView b =
          pointwise ? GemmView::plain(img, ho * wo) : GemmView::conv_planes(img, h, w, g);
      gemm_blocked(g.out_channels, krows, ho * wo, GemmView::plain(weight.data(), krows), b,
                   out.data() + s * g.out_channels * ho * wo, ho * wo, ep);
    }
  }, /*grain=*/1);
  return out;
}

Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight, const Conv2dGeom& g,
                             index_t in_h, index_t in_w) {
  const index_t n = grad_out.dim(0), ho = grad_out.dim(2), wo = grad_out.dim(3);
  const index_t krows = g.in_channels * g.kernel * g.kernel;
  Tensor gx(Shape{n, g.in_channels, in_h, in_w});
  parallel_for(0, n, [&](index_t lo, index_t hi) {
    auto& arena = ScratchArena::local();
    ScratchArena::Scope scope(arena);
    float* col = arena.alloc<float>(static_cast<std::size_t>(krows * ho * wo));
    for (index_t s = lo; s < hi; ++s) {
      // col (krows x P) = W^T (krows x Cout) * grad_out (Cout x P)
      gemm_blocked(krows, g.out_channels, ho * wo, GemmView::transposed(weight.data(), krows),
                   GemmView::plain(grad_out.data() + s * g.out_channels * ho * wo, ho * wo),
                   col, ho * wo);
      col2im(col, g.in_channels, in_h, in_w, g, gx.data() + s * g.in_channels * in_h * in_w);
    }
  }, /*grain=*/1);
  return gx;
}

void conv2d_backward_params(const Tensor& x, const Tensor& grad_out, const Conv2dGeom& g,
                            Tensor& grad_weight, Tensor& grad_bias) {
  const index_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const index_t krows = g.in_channels * g.kernel * g.kernel;
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* col = arena.alloc<float>(static_cast<std::size_t>(krows * ho * wo));
  for (index_t s = 0; s < n; ++s) {
    im2col(x.data() + s * g.in_channels * h * w, g.in_channels, h, w, g, col);
    const float* go = grad_out.data() + s * g.out_channels * ho * wo;
    // grad_weight (Cout x krows) += grad_out (Cout x P) * col (krows x P)^T
    gemm_blocked(g.out_channels, ho * wo, krows, GemmView::plain(go, ho * wo),
                 GemmView::transposed(col, ho * wo), grad_weight.data(), krows,
                 {.accumulate = true});
    if (!grad_bias.empty()) {
      for (index_t c = 0; c < g.out_channels; ++c) {
        const float* grow = go + c * ho * wo;
        double acc = 0.0;
        for (index_t i = 0; i < ho * wo; ++i) acc += grow[i];
        grad_bias[c] += static_cast<float>(acc);
      }
    }
  }
}

Tensor depthwise_conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                        const Conv2dGeom& g) {
  check_input(x, g, "depthwise_conv2d");
  const index_t n = x.dim(0), c_ = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  Tensor out(Shape{n, c_, ho, wo});
  const Dw3PlaneFn plane3 = dw3_plane_for_host();
  parallel_for(0, n * c_, [&](index_t lo, index_t hi) {
    for (index_t sc = lo; sc < hi; ++sc) {
      const index_t c = sc % c_;
      depthwise_plane(x.data() + sc * h * w, h, w, weight.data() + c * g.kernel * g.kernel,
                      bias.empty() ? 0.0f : bias[c], g, plane3, nullptr,
                      out.data() + sc * ho * wo);
    }
  }, /*grain=*/1);
  return out;
}

Tensor depthwise_separable_conv2d(const Tensor& x, const Tensor& dw_weight,
                                  const Tensor& pw_weight, const Conv2dGeom& g, Tensor* mid,
                                  const BatchNormEval* bn_relu) {
  check_input(x, g, "depthwise_separable_conv2d");
  if (bn_relu != nullptr && bn_relu->channels != x.dim(1)) {
    throw std::invalid_argument("depthwise_separable_conv2d: prologue channel mismatch");
  }
  const index_t n = x.dim(0), c_ = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t ho = g.out_extent(h), wo = g.out_extent(w);
  const index_t plane = ho * wo, cout = pw_weight.dim(0);
  Tensor out(Shape{n, cout, ho, wo});
  if (mid != nullptr) *mid = Tensor(Shape{n, c_, ho, wo});
  const Dw3PlaneFn plane3 = dw3_plane_for_host();
  // Depthwise planes [lo, hi) of sample s into `m`, the sample's (C, Ho*Wo)
  // buffer; the pointwise conv is then the GEMM (Cout x C) * m, read in place.
  auto depthwise = [&](index_t s, index_t lo, index_t hi, float* m) {
    for (index_t c = lo; c < hi; ++c) {
      const BnChannel pre = bn_relu != nullptr ? bn_relu->channel(c) : BnChannel{};
      depthwise_plane(x.data() + (s * c_ + c) * h * w, h, w,
                      dw_weight.data() + c * g.kernel * g.kernel, 0.0f, g, plane3,
                      bn_relu != nullptr ? &pre : nullptr, m + c * plane);
    }
  };
  auto pointwise = [&](index_t s, const float* m) {
    gemm_blocked(cout, c_, plane, GemmView::plain(pw_weight.data(), c_),
                 GemmView::plain(m, plane), out.data() + s * cout * plane, plane);
  };
  if (n == 1) {
    // One sample: its planes split across the pool, then the GEMM splits its
    // own tiles.
    auto& arena = ScratchArena::local();
    ScratchArena::Scope scope(arena);
    float* m = mid != nullptr ? mid->data()
                              : arena.alloc<float>(static_cast<std::size_t>(c_ * plane));
    parallel_for(0, c_, [&](index_t lo, index_t hi) { depthwise(0, lo, hi, m); }, /*grain=*/1);
    pointwise(0, m);
    return out;
  }
  parallel_for(0, n, [&](index_t lo, index_t hi) {
    auto& arena = ScratchArena::local();
    ScratchArena::Scope scope(arena);
    float* buf =
        mid != nullptr ? nullptr : arena.alloc<float>(static_cast<std::size_t>(c_ * plane));
    for (index_t s = lo; s < hi; ++s) {
      float* m = mid != nullptr ? mid->data() + s * c_ * plane : buf;
      depthwise(s, 0, c_, m);
      pointwise(s, m);
    }
  }, /*grain=*/1);
  return out;
}

Tensor depthwise_conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                                       const Conv2dGeom& g, index_t in_h, index_t in_w) {
  const index_t n = grad_out.dim(0), c_ = grad_out.dim(1), ho = grad_out.dim(2),
                wo = grad_out.dim(3);
  const ValidRange iy_r = interior_range(in_h, ho, g.stride, g.pad, g.kernel);
  const ValidRange ix_r = interior_range(in_w, wo, g.stride, g.pad, g.kernel);
  Tensor gx(Shape{n, c_, in_h, in_w});
  parallel_for(0, n * c_, [&](index_t lo, index_t hi) {
    for (index_t sc = lo; sc < hi; ++sc) {
      const index_t c = sc % c_;
      const float* ker = weight.data() + c * g.kernel * g.kernel;
      const float* go = grad_out.data() + sc * ho * wo;
      float* dst = gx.data() + sc * in_h * in_w;
      auto edge_cell = [&](index_t oy, index_t ox) {
        const float gv = go[oy * wo + ox];
        if (gv == 0.0f) return;
        for (index_t ky = 0; ky < g.kernel; ++ky) {
          const index_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= in_h) continue;
          for (index_t kx = 0; kx < g.kernel; ++kx) {
            const index_t ix = ox * g.stride + kx - g.pad;
            if (ix >= 0 && ix < in_w) dst[iy * in_w + ix] += gv * ker[ky * g.kernel + kx];
          }
        }
      };
      for (index_t oy = 0; oy < ho; ++oy) {
        const bool row_interior = oy >= iy_r.lo && oy < iy_r.hi;
        if (!row_interior) {
          for (index_t ox = 0; ox < wo; ++ox) edge_cell(oy, ox);
          continue;
        }
        for (index_t ox = 0; ox < ix_r.lo; ++ox) edge_cell(oy, ox);
        float* origin = dst + (oy * g.stride - g.pad) * in_w - g.pad;
        const float* grow = go + oy * wo;
        for (index_t ox = ix_r.lo; ox < ix_r.hi; ++ox) {
          const float gv = grow[ox];
          if (gv == 0.0f) continue;
          float* win = origin + ox * g.stride;
          for (index_t ky = 0; ky < g.kernel; ++ky) {
            float* row = win + ky * in_w;
            const float* krow = ker + ky * g.kernel;
            for (index_t kx = 0; kx < g.kernel; ++kx) row[kx] += gv * krow[kx];
          }
        }
        for (index_t ox = ix_r.hi; ox < wo; ++ox) edge_cell(oy, ox);
      }
    }
  }, /*grain=*/1);
  return gx;
}

void depthwise_conv2d_backward_params(const Tensor& x, const Tensor& grad_out,
                                      const Conv2dGeom& g, Tensor& grad_weight,
                                      Tensor& grad_bias) {
  const index_t n = x.dim(0), c_ = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t ho = grad_out.dim(2), wo = grad_out.dim(3);
  const ValidRange iy_r = interior_range(h, ho, g.stride, g.pad, g.kernel);
  const ValidRange ix_r = interior_range(w, wo, g.stride, g.pad, g.kernel);
  for (index_t s = 0; s < n; ++s) {
    for (index_t c = 0; c < c_; ++c) {
      const float* src = x.data() + (s * c_ + c) * h * w;
      const float* go = grad_out.data() + (s * c_ + c) * ho * wo;
      float* gw = grad_weight.data() + c * g.kernel * g.kernel;
      auto edge_cell = [&](index_t oy, index_t ox) {
        const float gv = go[oy * wo + ox];
        if (gv == 0.0f) return;
        for (index_t ky = 0; ky < g.kernel; ++ky) {
          const index_t iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < g.kernel; ++kx) {
            const index_t ix = ox * g.stride + kx - g.pad;
            if (ix >= 0 && ix < w) gw[ky * g.kernel + kx] += gv * src[iy * w + ix];
          }
        }
      };
      for (index_t oy = 0; oy < iy_r.lo; ++oy) {
        for (index_t ox = 0; ox < wo; ++ox) edge_cell(oy, ox);
      }
      // Interior: per kernel tap, a unit-stride dot product over the valid
      // output rows — bounds checks hoisted out of the inner loops entirely.
      if (iy_r.hi > iy_r.lo && ix_r.hi > ix_r.lo) {
        for (index_t ky = 0; ky < g.kernel; ++ky) {
          for (index_t kx = 0; kx < g.kernel; ++kx) {
            double acc = 0.0;
            for (index_t oy = iy_r.lo; oy < iy_r.hi; ++oy) {
              const float* grow = go + oy * wo;
              const float* srow = src + (oy * g.stride + ky - g.pad) * w + kx - g.pad;
              if (g.stride == 1) {
                for (index_t ox = ix_r.lo; ox < ix_r.hi; ++ox) {
                  acc += static_cast<double>(grow[ox]) * srow[ox];
                }
              } else {
                for (index_t ox = ix_r.lo; ox < ix_r.hi; ++ox) {
                  acc += static_cast<double>(grow[ox]) * srow[ox * g.stride];
                }
              }
            }
            gw[ky * g.kernel + kx] += static_cast<float>(acc);
          }
        }
        for (index_t oy = iy_r.lo; oy < iy_r.hi; ++oy) {
          for (index_t ox = 0; ox < ix_r.lo; ++ox) edge_cell(oy, ox);
          for (index_t ox = ix_r.hi; ox < wo; ++ox) edge_cell(oy, ox);
        }
      } else {
        for (index_t oy = iy_r.lo; oy < iy_r.hi; ++oy) {
          for (index_t ox = 0; ox < wo; ++ox) edge_cell(oy, ox);
        }
      }
      for (index_t oy = iy_r.hi; oy < ho; ++oy) {
        for (index_t ox = 0; ox < wo; ++ox) edge_cell(oy, ox);
      }
      if (!grad_bias.empty()) {
        double acc = 0.0;
        for (index_t i = 0; i < ho * wo; ++i) acc += go[i];
        grad_bias[c] += static_cast<float>(acc);
      }
    }
  }
}

}  // namespace nodetr::tensor
