// Convolution kernels on NCHW tensors: the dense conv2d as an implicit GEMM
// (its B panels gathered straight from the input planes), a direct depthwise
// conv, each with the backward kernels needed for training, and the
// depthwise-separable forward that feeds the depthwise planes straight into
// the pointwise GEMM.
#pragma once

#include <cmath>

#include "nodetr/tensor/tensor.hpp"

namespace nodetr::tensor {

/// One channel of an inference batch normalization:
/// x -> gamma * ((x - mean) * istd) + beta, with istd = 1 / sqrt(var + eps).
/// BatchNorm2d's eval pass and the depthwise-separable prologue both
/// evaluate it here, so the two cannot round differently.
struct BnChannel {
  float mean = 0.0f, istd = 1.0f, gamma = 1.0f, beta = 0.0f;

  [[nodiscard]] static BnChannel of(float mean, float var, float gamma, float beta, float eps) {
    return {mean, 1.0f / std::sqrt(var + eps), gamma, beta};
  }
  [[nodiscard]] float operator()(float x) const { return gamma * ((x - mean) * istd) + beta; }
};

/// ReLU as every inference pass applies it: v > 0 ? v : 0, so -0 and NaN
/// give +0.
[[nodiscard]] inline float relu(float v) { return v > 0.0f ? v : 0.0f; }

/// The running statistics and affine parameters of an inference batch
/// normalization, one entry per channel.
struct BatchNormEval {
  index_t channels = 0;
  const float* mean = nullptr;
  const float* var = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
  float eps = 0.0f;

  [[nodiscard]] BnChannel channel(index_t c) const {
    return BnChannel::of(mean[c], var[c], gamma[c], beta[c], eps);
  }
};

/// Static geometry of a 2-D convolution.
struct Conv2dGeom {
  index_t in_channels = 0;
  index_t out_channels = 0;
  index_t kernel = 3;   ///< square kernel K x K
  index_t stride = 1;
  index_t pad = 1;

  [[nodiscard]] index_t out_extent(index_t in) const {
    return (in + 2 * pad - kernel) / stride + 1;
  }
};

/// Unfold one image (C,H,W) into columns (C*K*K, Ho*Wo). Zero padding.
void im2col(const float* img, index_t channels, index_t h, index_t w, const Conv2dGeom& g,
            float* col);

/// A block of im2col's columns: rows [row0, row0 + rows) and columns [col0,
/// col0 + cols) of the (C*K*K, Ho*Wo) matrix of the (C, h, w) planes at
/// `img`, row r at dst + (r - row0) * ld. Padding cells are +0, as im2col
/// writes them; the GEMM's conv-form B pack gathers its panels with it.
void im2col_block(const float* img, index_t h, index_t w, const Conv2dGeom& g, index_t row0,
                  index_t rows, index_t col0, index_t cols, float* dst, index_t ld);

/// Fold columns (C*K*K, Ho*Wo) back into an image (C,H,W), accumulating overlaps.
void col2im(const float* col, index_t channels, index_t h, index_t w, const Conv2dGeom& g,
            float* img);

/// Forward: x (N,Cin,H,W), weight (Cout,Cin,K,K), bias (Cout) or empty.
/// A 1x1 stride-1 unpadded conv reads each input plane as the GEMM operand;
/// any other geometry is a conv-view GEMM, with no column buffer. The bits
/// are those of im2col followed by the GEMM.
[[nodiscard]] Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                            const Conv2dGeom& g);

/// Backward w.r.t. input. grad_out (N,Cout,Ho,Wo) -> grad_x (N,Cin,H,W).
[[nodiscard]] Tensor conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                                           const Conv2dGeom& g, index_t in_h, index_t in_w);

/// Backward w.r.t. weight/bias; accumulates into grad_weight/grad_bias.
void conv2d_backward_params(const Tensor& x, const Tensor& grad_out, const Conv2dGeom& g,
                            Tensor& grad_weight, Tensor& grad_bias);

/// Depthwise forward: x (N,C,H,W), weight (C,1,K,K) flattened to (C,K,K), bias (C) or empty.
[[nodiscard]] Tensor depthwise_conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                                      const Conv2dGeom& g);

/// Depthwise-separable forward: the depthwise conv (geometry `g`, no bias)
/// of x (N,C,H,W) with dw_weight (C,K,K), then the 1x1 pointwise conv with
/// pw_weight (Cout,C,1,1), no bias. Bitwise equal to depthwise_conv2d then
/// conv2d, without materializing the depthwise output or its columns: each
/// sample's depthwise planes go into a scratch buffer that the pointwise GEMM
/// reads in place. A non-null `mid` instead receives them as (N,C,Ho,Wo),
/// the buffer backward needs. Batch 1 splits the planes across the pool,
/// larger batches split the samples.
///
/// A non-null `bn_relu` is an input prologue: the conv then reads
/// relu(bn_relu(x)) per channel, bitwise as if that had been computed into
/// a tensor first, and x itself is left alone. The depthwise applies it as
/// it copies each plane into the zero-framed scratch of the 3x3 stride-1
/// path, or into the same per-thread scratch before any other geometry.
[[nodiscard]] Tensor depthwise_separable_conv2d(const Tensor& x, const Tensor& dw_weight,
                                                const Tensor& pw_weight, const Conv2dGeom& g,
                                                Tensor* mid = nullptr,
                                                const BatchNormEval* bn_relu = nullptr);

[[nodiscard]] Tensor depthwise_conv2d_backward_input(const Tensor& grad_out, const Tensor& weight,
                                                     const Conv2dGeom& g, index_t in_h,
                                                     index_t in_w);

void depthwise_conv2d_backward_params(const Tensor& x, const Tensor& grad_out,
                                      const Conv2dGeom& g, Tensor& grad_weight,
                                      Tensor& grad_bias);

}  // namespace nodetr::tensor
