#include "nodetr/nn/dropout.hpp"

#include <stdexcept>

namespace nodetr::nn {

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {
  if (p < 0.0f || p >= 1.0f) throw std::invalid_argument("Dropout: p must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& x) {
  begin_forward();
  if (!training_ || p_ == 0.0f) {
    mask_ = Tensor();
    return x;
  }
  mask_ = Tensor(x.shape());
  Tensor out(x.shape());
  const float scale = 1.0f / (1.0f - p_);
  for (index_t i = 0; i < x.numel(); ++i) {
    const float m = rng_.bernoulli(p_) ? 0.0f : scale;
    mask_[i] = m;
    out[i] = x[i] * m;
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  require_backward_state();
  if (mask_.empty()) return grad_out;
  Tensor gx(grad_out.shape());
  for (index_t i = 0; i < grad_out.numel(); ++i) gx[i] = grad_out[i] * mask_[i];
  return gx;
}

std::string Dropout::name() const { return "Dropout(" + std::to_string(p_) + ")"; }

}  // namespace nodetr::nn
