// Convolutional modules on NCHW tensors.
#pragma once

#include "nodetr/nn/module.hpp"
#include "nodetr/tensor/conv.hpp"

namespace nodetr::nn {

using nodetr::tensor::Conv2dGeom;

/// Dense 2-D convolution, square kernel.
class Conv2d final : public Module {
 public:
  Conv2d(index_t in_channels, index_t out_channels, index_t kernel, index_t stride, index_t pad,
         bool bias, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Param*> local_parameters() override;
  [[nodiscard]] const Conv2dGeom& geom() const { return geom_; }
  [[nodiscard]] Param& weight() { return weight_; }
  [[nodiscard]] Param& bias() { return bias_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }

 private:
  void release_backward_state() override { x_ = Tensor(); }

  Conv2dGeom geom_;
  bool has_bias_;
  Param weight_;  ///< (Cout, Cin, K, K)
  Param bias_;    ///< (Cout) or empty
  Tensor x_;
};

/// Depthwise separable convolution: a per-channel KxK depthwise filter
/// followed by a 1x1 pointwise mix (MobileNet [22] / Xception [23]).
/// Parameter size is N*K^2 + N*M versus N*M*K^2 for a dense conv — the
/// reduction the dsODENet backbone [21] relies on. No biases, matching the
/// paper's parameter-size formula; a BatchNorm always follows in the backbone.
class DepthwiseSeparableConv final : public Module {
 public:
  DepthwiseSeparableConv(index_t in_channels, index_t out_channels, index_t kernel, index_t stride,
                         index_t pad, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  /// The inference forward of ReLU(bn(x)): bitwise `bn.eval_into(x, y,
  /// true)` then forward(y), with y never stored. The depthwise applies
  /// bn's eval expression and the ReLU as it reads each input plane (the
  /// prologue of tensor::depthwise_separable_conv2d). Records nothing, so
  /// only a Sequential running BN, ReLU and this conv as inference calls it.
  [[nodiscard]] Tensor forward_bn_relu(const Tensor& x, const tensor::BatchNormEval& bn) const;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Param*> local_parameters() override;
  [[nodiscard]] const Conv2dGeom& dw_geom() const { return dw_geom_; }
  [[nodiscard]] const Conv2dGeom& pw_geom() const { return pw_geom_; }
  [[nodiscard]] Param& dw_weight() { return dw_weight_; }
  [[nodiscard]] Param& pw_weight() { return pw_weight_; }

 private:
  void release_backward_state() override {
    x_ = Tensor();
    mid_ = Tensor();
  }

  Conv2dGeom dw_geom_;   ///< depthwise stage
  Conv2dGeom pw_geom_;   ///< pointwise (1x1) stage
  Param dw_weight_;      ///< (Cin, K, K)
  Param pw_weight_;      ///< (Cout, Cin, 1, 1)
  Tensor x_;
  Tensor mid_;           ///< depthwise output, cached for pointwise backward
};

}  // namespace nodetr::nn
