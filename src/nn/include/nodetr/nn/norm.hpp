// Normalization layers: BatchNorm2d for the CNN backbone, LayerNorm for the
// MHSA output (Eq. 17).
#pragma once

#include "nodetr/nn/module.hpp"
#include "nodetr/tensor/conv.hpp"

namespace nodetr::nn {

/// Per-channel batch normalization over (B, C, H, W); tracks running stats
/// for inference.
class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(index_t channels, float eps = 1e-5f, float momentum = 0.1f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  /// The eval-mode forward as one pass into `out` (x's shape; may alias x):
  /// tensor::BnChannel of the running statistics per channel, then, when
  /// `relu` is set, tensor::relu -- bitwise this module's eval forward
  /// followed by ReLU's. Records nothing for backward. (Sample, channel)
  /// planes split across the pool; small inputs run on the calling thread.
  void eval_into(const Tensor& x, Tensor& out, bool relu) const;

  /// The running statistics and affine parameters that eval_into applies,
  /// for a conv that applies them as its input prologue.
  [[nodiscard]] tensor::BatchNormEval eval_params() const {
    return {.channels = channels_, .mean = running_mean_.data(), .var = running_var_.data(),
            .gamma = gamma_.value.data(), .beta = beta_.value.data(), .eps = eps_};
  }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Param*> local_parameters() override { return {&gamma_, &beta_}; }
  [[nodiscard]] std::vector<Tensor*> local_buffers() override {
    return {&running_mean_, &running_var_};
  }

  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }
  [[nodiscard]] float eps() const { return eps_; }
  [[nodiscard]] Param& gamma() { return gamma_; }
  [[nodiscard]] Param& beta() { return beta_; }

 private:
  void release_backward_state() override {
    xhat_ = Tensor();
    inv_std_ = Tensor();
  }

  index_t channels_;
  float eps_, momentum_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;  // buffers, not learnable
  // Cached for backward.
  Tensor xhat_;
  Tensor inv_std_;  // (C)
};

/// LayerNorm over the last axis; all leading axes are treated as rows.
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(index_t dim, float eps = 1e-5f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Param*> local_parameters() override { return {&gamma_, &beta_}; }
  [[nodiscard]] float eps() const { return eps_; }
  [[nodiscard]] index_t dim() const { return dim_; }
  [[nodiscard]] Param& gamma() { return gamma_; }
  [[nodiscard]] Param& beta() { return beta_; }

 private:
  void release_backward_state() override {
    xhat_ = Tensor();
    inv_std_ = Tensor();
  }

  index_t dim_;
  float eps_;
  Param gamma_, beta_;
  Tensor xhat_;
  Tensor inv_std_;  // one per row
};

}  // namespace nodetr::nn
