// Fully connected layer y = x W^T + b.
#pragma once

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

class Linear final : public Module {
 public:
  /// Weight is (out, in), Kaiming-initialized from `rng`; bias optional.
  Linear(index_t in_features, index_t out_features, bool bias, Rng& rng);

  /// x: (B, in) -> (B, out).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Param*> local_parameters() override;

  [[nodiscard]] Param& weight() { return weight_; }
  [[nodiscard]] Param& bias() { return bias_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }
  [[nodiscard]] index_t in_features() const { return in_; }
  [[nodiscard]] index_t out_features() const { return out_; }

 private:
  void release_backward_state() override { x_ = Tensor(); }

  index_t in_, out_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor x_;
};

}  // namespace nodetr::nn
