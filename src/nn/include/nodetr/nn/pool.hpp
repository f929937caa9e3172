// Pooling modules on NCHW tensors.
#pragma once

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

/// Max pooling with a square window; caches argmax indices for backward.
/// Runs in parallel over (sample, channel) planes.
class MaxPool2d final : public Module {
 public:
  MaxPool2d(index_t kernel, index_t stride, index_t pad);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] index_t kernel() const { return kernel_; }
  [[nodiscard]] index_t stride() const { return stride_; }
  [[nodiscard]] index_t pad() const { return pad_; }

 private:
  void release_backward_state() override { argmax_ = {}; }

  index_t kernel_, stride_, pad_;
  Shape in_shape_{std::initializer_list<index_t>{0}};
  std::vector<index_t> argmax_;  ///< flat input index per output element
};

/// Average pooling with a square window (count includes padding positions,
/// matching the conventional count_include_pad=false? No: divisor is the
/// number of valid taps).
class AvgPool2d final : public Module {
 public:
  AvgPool2d(index_t kernel, index_t stride, index_t pad);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override;

 private:
  index_t kernel_, stride_, pad_;
  Shape in_shape_{std::initializer_list<index_t>{0}};
};

/// Global average pooling (B, C, H, W) -> (B, C).
class GlobalAvgPool final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape in_shape_{std::initializer_list<index_t>{0}};
};

}  // namespace nodetr::nn
