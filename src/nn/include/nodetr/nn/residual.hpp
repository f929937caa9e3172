// Residual wrapper: y = act(body(x) + skip(x)) with skip defaulting to
// identity — the ResBlock shape of Eq. 10.
#pragma once

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

class Residual final : public Module {
 public:
  /// `skip` may be null (identity). `final_relu` applies ReLU after the sum
  /// (standard post-activation ResNet).
  Residual(ModulePtr body, ModulePtr skip = nullptr, bool final_relu = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override { return "Residual"; }
  [[nodiscard]] std::vector<Module*> children() override;
  [[nodiscard]] Module& body() { return *body_; }
  [[nodiscard]] Module* skip() { return skip_.get(); }
  [[nodiscard]] bool final_relu() const { return final_relu_; }

 private:
  void release_backward_state() override { relu_mask_ = Tensor(); }

  ModulePtr body_;
  ModulePtr skip_;
  bool final_relu_;
  Tensor relu_mask_;
};

}  // namespace nodetr::nn
