#include "nodetr/fx/qconv.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "accum.hpp"
#include "nodetr/tensor/arena.hpp"
#include "nodetr/tensor/parallel.hpp"

namespace nodetr::fx {

using nodetr::tensor::index_t;

namespace {

using detail::narrow;
using detail::wide_t;
using nodetr::tensor::ScratchArena;

void check_nchw(const FixedTensor& x, const char* who) {
  if (x.shape().rank() != 4) throw std::invalid_argument(std::string(who) + ": rank must be 4");
}

/// True when a conv of `terms` products per output (plus a bias of at most
/// bias_max) accumulates exactly in int64; counts the __int128 fallbacks.
bool conv_fits_int64(const FixedTensor& x, const FixedTensor& weight, index_t terms,
                     std::uint64_t bias_max, int prod_frac, const FixedFormat& out_format) {
  const bool fits = detail::fits_int64(detail::max_abs(x.raw(), x.numel()),
                                       detail::max_abs(weight.raw(), weight.numel()), terms,
                                       bias_max, prod_frac - out_format.frac_bits());
  if (!fits) detail::count_wide_fallback();
  return fits;
}

/// Outputs [lo, hi) along one axis whose input index o * stride + off lies
/// in [0, in): where a kernel tap at offset `off` lands inside the image.
std::pair<index_t, index_t> valid_outputs(index_t out, index_t in, index_t stride, index_t off) {
  const auto ceil_div = [stride](index_t a) { return a <= 0 ? 0 : (a + stride - 1) / stride; };
  const index_t hi = std::min(out, ceil_div(in - off));
  return {std::min(ceil_div(-off), hi), hi};
}

/// acc (ho x wo) += one k x k kernel slid over one input plane (h x w).
/// Tap by tap, so the innermost loop walks an output row and an input row
/// with no bounds checks; integer sums are exact in any order.
template <typename Acc>
void accumulate_plane(Acc* acc, const std::int64_t* src, const std::int64_t* ker,
                      const Conv2dGeom& g, index_t h, index_t w, index_t ho, index_t wo) {
  for (index_t ky = 0; ky < g.kernel; ++ky) {
    const auto [oy0, oy1] = valid_outputs(ho, h, g.stride, ky - g.pad);
    for (index_t kx = 0; kx < g.kernel; ++kx) {
      const auto [ox0, ox1] = valid_outputs(wo, w, g.stride, kx - g.pad);
      const std::int64_t wk = ker[ky * g.kernel + kx];
      for (index_t oy = oy0; oy < oy1; ++oy) {
        const index_t base = (oy * g.stride + ky - g.pad) * w + kx - g.pad;
        Acc* arow = acc + oy * wo;
        for (index_t ox = ox0; ox < ox1; ++ox) {
          arow[ox] += static_cast<Acc>(src[base + ox * g.stride]) * wk;
        }
      }
    }
  }
}

/// Dense (`depthwise` false, weight Cout x Cin x K x K) or depthwise (weight
/// C x K x K) conv with accumulator type `Acc`: int64 once proven, else
/// __int128. One output plane per task, seeded with its channel's bias at the
/// product scale (`bias_acc`, or empty) and rounded once at the end.
template <typename Acc>
void conv_planes(const FixedTensor& x, const FixedTensor& weight,
                 const std::vector<std::int64_t>& bias_acc, const Conv2dGeom& g, bool depthwise,
                 int prod_frac, FixedTensor& out) {
  const index_t cin = x.shape().dim(1), h = x.shape().dim(2), w = x.shape().dim(3);
  const index_t cout = out.shape().dim(1), ho = out.shape().dim(2), wo = out.shape().dim(3);
  const index_t taps = g.kernel * g.kernel, plane = ho * wo;
  const FixedFormat out_format = out.format();
  nodetr::tensor::parallel_for(0, out.shape().dim(0) * cout, [&](index_t lo, index_t hi) {
    auto& arena = ScratchArena::local();
    ScratchArena::Scope scope(arena);
    Acc* acc = arena.alloc<Acc>(static_cast<std::size_t>(plane));
    for (index_t soc = lo; soc < hi; ++soc) {
      const index_t s = soc / cout, oc = soc % cout;
      std::fill(acc, acc + plane,
                bias_acc.empty() ? Acc{0} : Acc{bias_acc[static_cast<std::size_t>(oc)]});
      if (depthwise) {
        accumulate_plane(acc, x.raw() + (s * cin + oc) * h * w, weight.raw() + oc * taps, g, h,
                         w, ho, wo);
      } else {
        for (index_t ic = 0; ic < cin; ++ic) {
          accumulate_plane(acc, x.raw() + (s * cin + ic) * h * w,
                           weight.raw() + (oc * cin + ic) * taps, g, h, w, ho, wo);
        }
      }
      std::int64_t* dst = out.raw() + soc * plane;
      for (index_t i = 0; i < plane; ++i) dst[i] = narrow(acc[i], prod_frac, out_format);
    }
  }, /*grain=*/1);
}

}  // namespace

FixedTensor qconv2d(const FixedTensor& x, const FixedTensor& weight, const FixedTensor& bias,
                    const Conv2dGeom& g, FixedFormat out_format) {
  check_nchw(x, "qconv2d");
  const index_t n = x.shape().dim(0), h = x.shape().dim(2), w = x.shape().dim(3);
  const int prod_frac = x.format().frac_bits() + weight.format().frac_bits();
  FixedTensor out(nodetr::tensor::Shape{n, g.out_channels, g.out_extent(h), g.out_extent(w)},
                  out_format);
  std::vector<std::int64_t> bias_acc;
  if (!bias.empty()) {
    bias_acc.resize(static_cast<std::size_t>(g.out_channels));
    for (index_t oc = 0; oc < g.out_channels; ++oc) {
      bias_acc[static_cast<std::size_t>(oc)] =
          convert_raw(bias[oc], bias.format(), FixedFormat{62, 62 - prod_frac});
    }
  }
  const std::uint64_t bias_max =
      detail::max_abs(bias_acc.data(), static_cast<index_t>(bias_acc.size()));
  if (conv_fits_int64(x, weight, g.in_channels * g.kernel * g.kernel, bias_max, prod_frac,
                      out_format)) {
    conv_planes<std::int64_t>(x, weight, bias_acc, g, /*depthwise=*/false, prod_frac, out);
  } else {
    conv_planes<wide_t>(x, weight, bias_acc, g, /*depthwise=*/false, prod_frac, out);
  }
  return out;
}

FixedTensor qdepthwise_conv2d(const FixedTensor& x, const FixedTensor& weight,
                              const Conv2dGeom& g, FixedFormat out_format) {
  check_nchw(x, "qdepthwise_conv2d");
  const index_t h = x.shape().dim(2), w = x.shape().dim(3);
  const int prod_frac = x.format().frac_bits() + weight.format().frac_bits();
  FixedTensor out(nodetr::tensor::Shape{x.shape().dim(0), x.shape().dim(1), g.out_extent(h),
                                        g.out_extent(w)},
                  out_format);
  if (conv_fits_int64(x, weight, g.kernel * g.kernel, 0, prod_frac, out_format)) {
    conv_planes<std::int64_t>(x, weight, {}, g, /*depthwise=*/true, prod_frac, out);
  } else {
    conv_planes<wide_t>(x, weight, {}, g, /*depthwise=*/true, prod_frac, out);
  }
  return out;
}

FixedTensor qscale_shift_channels(const FixedTensor& x, const FixedTensor& scale,
                                  const FixedTensor& shift) {
  check_nchw(x, "qscale_shift_channels");
  const index_t n = x.shape().dim(0), c_ = x.shape().dim(1),
                plane = x.shape().dim(2) * x.shape().dim(3);
  if (scale.numel() != c_ || shift.numel() != c_) {
    throw std::invalid_argument("qscale_shift_channels: per-channel size mismatch");
  }
  const auto& ff = x.format();
  const int prod_frac = ff.frac_bits() + scale.format().frac_bits();
  FixedTensor out(x.shape(), ff);
  for (index_t sc = 0; sc < n * c_; ++sc) {
    const index_t c = sc % c_;
    const std::int64_t sh = convert_raw(shift[c], shift.format(), ff);
    for (index_t i = 0; i < plane; ++i) {
      const wide_t p = static_cast<wide_t>(x[sc * plane + i]) * scale[c];
      out[sc * plane + i] = saturate(narrow(p, prod_frac, ff) + sh, ff);
    }
  }
  return out;
}

FixedTensor qglobal_avg_pool(const FixedTensor& x) {
  check_nchw(x, "qglobal_avg_pool");
  const index_t n = x.shape().dim(0), c_ = x.shape().dim(1),
                plane = x.shape().dim(2) * x.shape().dim(3);
  const auto& ff = x.format();
  FixedTensor out(nodetr::tensor::Shape{n, c_}, ff);
  for (index_t sc = 0; sc < n * c_; ++sc) {
    wide_t acc = 0;
    for (index_t i = 0; i < plane; ++i) acc += x[sc * plane + i];
    // Division by the plane size with round-to-nearest.
    const wide_t half = plane / 2;
    const wide_t q = (acc + (acc >= 0 ? half : -half)) / plane;
    out[sc] = saturate(static_cast<std::int64_t>(q), ff);
  }
  return out;
}

FixedTensor qmax_pool(const FixedTensor& x, index_t kernel, index_t stride, index_t pad) {
  check_nchw(x, "qmax_pool");
  const index_t n = x.shape().dim(0), c_ = x.shape().dim(1), h = x.shape().dim(2),
                w = x.shape().dim(3);
  const index_t ho = (h + 2 * pad - kernel) / stride + 1;
  const index_t wo = (w + 2 * pad - kernel) / stride + 1;
  FixedTensor out(nodetr::tensor::Shape{n, c_, ho, wo}, x.format());
  for (index_t sc = 0; sc < n * c_; ++sc) {
    const std::int64_t* src = x.raw() + sc * h * w;
    for (index_t oy = 0; oy < ho; ++oy) {
      for (index_t ox = 0; ox < wo; ++ox) {
        std::int64_t best = std::numeric_limits<std::int64_t>::min();
        for (index_t ky = 0; ky < kernel; ++ky) {
          const index_t iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= h) continue;
          for (index_t kx = 0; kx < kernel; ++kx) {
            const index_t ix = ox * stride + kx - pad;
            if (ix >= 0 && ix < w) best = std::max(best, src[iy * w + ix]);
          }
        }
        out[(sc * ho + oy) * wo + ox] =
            best == std::numeric_limits<std::int64_t>::min() ? 0 : best;
      }
    }
  }
  return out;
}

}  // namespace nodetr::fx
