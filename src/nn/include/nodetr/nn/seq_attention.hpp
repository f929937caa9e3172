// Sequence-form multi-head self-attention for token sequences (B, T, D) —
// used by the ViT-Base counterpart. Faithful to the paper's Eq. 9: Q/K/V
// projections without biases, softmax attention, heads concatenated with NO
// output projection.
#pragma once

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

class SeqMhsa final : public Module {
 public:
  SeqMhsa(index_t dim, index_t heads, Rng& rng);

  /// x: (B, T, D) -> (B, T, D).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Param*> local_parameters() override { return {&wq_, &wk_, &wv_}; }

 private:
  void release_backward_state() override {
    x2_ = Tensor();
    q_ = Tensor();
    k_ = Tensor();
    v_ = Tensor();
    attn_.clear();
  }

  index_t dim_, heads_;
  Param wq_, wk_, wv_;
  Tensor x2_;  ///< cached (B*T, D) input
  Tensor q_, k_, v_;
  std::vector<Tensor> attn_;
  index_t batch_ = 0, tokens_ = 0;
};

}  // namespace nodetr::nn
