#include "nodetr/nn/pool.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nodetr::nn {

namespace nt = nodetr::tensor;

namespace {
index_t pooled_extent(index_t in, index_t k, index_t s, index_t p) {
  return (in + 2 * p - k) / s + 1;
}

/// Planes per parallel chunk: about 2^15 taps each.
index_t pool_grain(index_t out_plane, index_t kernel) {
  const index_t taps = std::max<index_t>(out_plane * kernel * kernel, 1);
  return std::max<index_t>(1, (index_t{1} << 15) / taps);
}

#if defined(__x86_64__) || defined(__i386__)

/// Lanes 0, 2, ..., 14 of the 16 floats at `p`: two loads, the even lanes of
/// each 128-bit half gathered by shuffle_ps, then put in order by
/// permute4x64.
__attribute__((target("avx2"), always_inline)) inline __m256 even_lanes(const float* p) {
  const __m256 s = _mm256_shuffle_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8),
                                     _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_castpd_ps(
      _mm256_permute4x64_pd(_mm256_castps_pd(s), _MM_SHUFFLE(3, 1, 2, 0)));
}

/// One 3x3 stride-2 pad-1 max-pool plane (ho x wo, wo >= 8) from its copy
/// `pad` bordered by -inf (row stride 2 * wo + 2). Each cell takes its nine
/// taps in row-major order as `max(v, best)` from -inf, which is
/// `v > best ? v : best`, NaN and +-0 included: the scalar loop's choice,
/// and a -inf padding tap never replaces it. The tail is recomputed as the
/// row's last 8 cells.
__attribute__((target("avx2"))) void maxpool3s2_plane_avx2(const float* pad, index_t ho,
                                                           index_t wo, float* dst) {
  const index_t pw = 2 * wo + 2;
  for (index_t oy = 0; oy < ho; ++oy) {
    for (index_t j = 0; j < wo; j += 8) {
      const index_t ox = std::min(j, wo - 8);
      const float* win = pad + 2 * oy * pw + 2 * ox;
      __m256 best = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
      for (int ky = 0; ky < 3; ++ky) {
        for (int kx = 0; kx < 3; ++kx) {
          best = _mm256_max_ps(even_lanes(win + ky * pw + kx), best);
        }
      }
      _mm256_storeu_ps(dst + oy * wo + ox, best);
    }
  }
}

/// The 3x3 stride-2 pad-1 forward of `x` into `out` through
/// `maxpool3s2_plane_avx2`. Each task copies its planes into the calling
/// thread's padded plane, whose -inf border it writes once; the buffer is
/// kept per thread, as the depthwise plane's is (conv.cpp).
void maxpool3s2_avx2(const Tensor& x, Tensor& out) {
  const index_t h = x.dim(2), w = x.dim(3), ho = out.dim(2), wo = out.dim(3);
  const index_t pw = 2 * wo + 2;  // >= w + 2; the last 8 cells read up to column 2 * wo + 1
  nt::parallel_for(0, x.dim(0) * x.dim(1), [&](index_t lo, index_t hi) {
    thread_local std::vector<float> buf;
    buf.assign(static_cast<std::size_t>((h + 2) * pw), -std::numeric_limits<float>::infinity());
    float* pad = buf.data();
    for (index_t bc = lo; bc < hi; ++bc) {
      const float* src = x.data() + bc * h * w;
      for (index_t y = 0; y < h; ++y) std::copy_n(src + y * w, w, pad + (y + 1) * pw + 1);
      maxpool3s2_plane_avx2(pad, ho, wo, out.data() + bc * ho * wo);
    }
  }, pool_grain(ho * wo, 3));
}

/// Whether a non-recording 3x3 stride-2 pad-1 forward with `wo` output
/// columns runs the AVX2 plane: at least 8 columns, and an AVX2 GEMM
/// microkernel selected (so the host has AVX2), the rule the depthwise plane
/// follows. A pinned `scalar_4x8` GEMM config runs the scalar loop.
bool maxpool3s2_vector(index_t wo) {
  return wo >= 8 &&
         std::string_view(nt::tune::gemm_config().kernel->name).starts_with("avx2_");
}

#endif

}  // namespace

MaxPool2d::MaxPool2d(index_t kernel, index_t stride, index_t pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {}

Tensor MaxPool2d::forward(const Tensor& x) {
  begin_forward();
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2d: rank must be 4");
  const index_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t ho = pooled_extent(h, kernel_, stride_, pad_);
  const index_t wo = pooled_extent(w, kernel_, stride_, pad_);
  Tensor out(Shape{b, c, ho, wo});
  index_t* argmax = nullptr;
  if (recording()) {
    in_shape_ = x.shape();
    argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
    argmax = argmax_.data();
  }
#if defined(__x86_64__) || defined(__i386__)
  if (argmax == nullptr && kernel_ == 3 && stride_ == 2 && pad_ == 1 && maxpool3s2_vector(wo)) {
    maxpool3s2_avx2(x, out);
    return out;
  }
#endif
  const index_t in_plane = h * w, out_plane = ho * wo;
  // Each task owns whole (sample, channel) planes.
  nt::parallel_for(0, b * c, [&](index_t lo, index_t hi) {
    for (index_t bc = lo; bc < hi; ++bc) {
      const float* src = x.data() + bc * in_plane;
      float* dst = out.data() + bc * out_plane;
      for (index_t oy = 0; oy < ho; ++oy) {
        // The window clipped to the input, scanned in the same row-major tap
        // order as the unclipped one, so ties keep the first maximum.
        const index_t y0 = oy * stride_ - pad_;
        const index_t ky_lo = std::max<index_t>(0, -y0);
        const index_t ky_hi = std::min(kernel_, h - y0);
        for (index_t ox = 0; ox < wo; ++ox) {
          const index_t x0 = ox * stride_ - pad_;
          const index_t kx_lo = std::max<index_t>(0, -x0);
          const index_t kx_hi = std::min(kernel_, w - x0);
          float best = -std::numeric_limits<float>::infinity();
          index_t besti = -1;
          for (index_t ky = ky_lo; ky < ky_hi; ++ky) {
            const index_t row = (y0 + ky) * w + x0;
            for (index_t kx = kx_lo; kx < kx_hi; ++kx) {
              const float v = src[row + kx];
              if (v > best) {
                best = v;
                besti = row + kx;
              }
            }
          }
          const index_t oidx = oy * wo + ox;
          dst[oidx] = best;
          if (argmax != nullptr) {
            argmax[bc * out_plane + oidx] = besti < 0 ? -1 : bc * in_plane + besti;
          }
        }
      }
    }
  }, pool_grain(out_plane, kernel_));
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  require_backward_state();
  Tensor gx(in_shape_);
  for (index_t i = 0; i < grad_out.numel(); ++i) {
    const index_t src = argmax_[static_cast<std::size_t>(i)];
    if (src >= 0) gx[src] += grad_out[i];
  }
  return gx;
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(k" + std::to_string(kernel_) + ",s" + std::to_string(stride_) + ")";
}

AvgPool2d::AvgPool2d(index_t kernel, index_t stride, index_t pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {}

Tensor AvgPool2d::forward(const Tensor& x) {
  begin_forward();
  if (x.rank() != 4) throw std::invalid_argument("AvgPool2d: rank must be 4");
  if (recording()) in_shape_ = x.shape();
  const index_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t ho = pooled_extent(h, kernel_, stride_, pad_);
  const index_t wo = pooled_extent(w, kernel_, stride_, pad_);
  Tensor out(Shape{b, c, ho, wo});
  index_t oidx = 0;
  for (index_t bc = 0; bc < b * c; ++bc) {
    const float* src = x.data() + bc * h * w;
    for (index_t oy = 0; oy < ho; ++oy) {
      for (index_t ox = 0; ox < wo; ++ox, ++oidx) {
        double acc = 0.0;
        index_t cnt = 0;
        for (index_t ky = 0; ky < kernel_; ++ky) {
          const index_t iy = oy * stride_ + ky - pad_;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < kernel_; ++kx) {
            const index_t ix = ox * stride_ + kx - pad_;
            if (ix < 0 || ix >= w) continue;
            acc += src[iy * w + ix];
            ++cnt;
          }
        }
        out[oidx] = cnt > 0 ? static_cast<float>(acc / cnt) : 0.0f;
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  require_backward_state();
  const index_t b = in_shape_.dim(0), c = in_shape_.dim(1), h = in_shape_.dim(2),
                w = in_shape_.dim(3);
  const index_t ho = pooled_extent(h, kernel_, stride_, pad_);
  const index_t wo = pooled_extent(w, kernel_, stride_, pad_);
  Tensor gx(in_shape_);
  index_t oidx = 0;
  for (index_t bc = 0; bc < b * c; ++bc) {
    float* dst = gx.data() + bc * h * w;
    for (index_t oy = 0; oy < ho; ++oy) {
      for (index_t ox = 0; ox < wo; ++ox, ++oidx) {
        index_t cnt = 0;
        for (index_t ky = 0; ky < kernel_; ++ky) {
          const index_t iy = oy * stride_ + ky - pad_;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < kernel_; ++kx) {
            const index_t ix = ox * stride_ + kx - pad_;
            if (ix >= 0 && ix < w) ++cnt;
          }
        }
        if (cnt == 0) continue;
        const float g = grad_out[oidx] / static_cast<float>(cnt);
        for (index_t ky = 0; ky < kernel_; ++ky) {
          const index_t iy = oy * stride_ + ky - pad_;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < kernel_; ++kx) {
            const index_t ix = ox * stride_ + kx - pad_;
            if (ix >= 0 && ix < w) dst[iy * w + ix] += g;
          }
        }
      }
    }
  }
  return gx;
}

std::string AvgPool2d::name() const {
  return "AvgPool2d(k" + std::to_string(kernel_) + ",s" + std::to_string(stride_) + ")";
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
  begin_forward();
  if (x.rank() != 4) throw std::invalid_argument("GlobalAvgPool: rank must be 4");
  if (recording()) in_shape_ = x.shape();
  const index_t b = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  Tensor out(Shape{b, c});
  for (index_t bc = 0; bc < b * c; ++bc) {
    const float* src = x.data() + bc * plane;
    double acc = 0.0;
    for (index_t i = 0; i < plane; ++i) acc += src[i];
    out[bc] = static_cast<float>(acc / static_cast<double>(plane));
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  require_backward_state();
  const index_t plane = in_shape_.dim(2) * in_shape_.dim(3);
  Tensor gx(in_shape_);
  const float inv = 1.0f / static_cast<float>(plane);
  for (index_t bc = 0; bc < grad_out.numel(); ++bc) {
    float* dst = gx.data() + bc * plane;
    const float g = grad_out[bc] * inv;
    for (index_t i = 0; i < plane; ++i) dst[i] = g;
  }
  return gx;
}

}  // namespace nodetr::nn
