// Pointwise activation modules.
#pragma once

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

/// max(0, x). The paper replaces attention softmax with ReLU because in
/// hardware it costs one comparator and one multiplexer (Sec. V-A).
class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

  /// The forward without recording: out = x > 0 ? x : 0, elementwise, into
  /// `out` (x's element count; may alias x).
  static void eval_into(const Tensor& x, Tensor& out);

 private:
  void release_backward_state() override { mask_ = Tensor(); }

  Tensor mask_;
};

/// Gaussian error linear unit (tanh approximation), used by the ViT MLP.
class GELU final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "GELU"; }

 private:
  void release_backward_state() override { x_ = Tensor(); }

  Tensor x_;
};

}  // namespace nodetr::nn
