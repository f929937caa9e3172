// Inverted dropout.
#pragma once

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

class Dropout final : public Module {
 public:
  /// Drop probability `p`; scaling 1/(1-p) is applied at train time so
  /// inference is the identity.
  explicit Dropout(float p, std::uint64_t seed = 0xd20);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override;

 private:
  void release_backward_state() override { mask_ = Tensor(); }

  float p_;
  Rng rng_;
  Tensor mask_;
};

}  // namespace nodetr::nn
