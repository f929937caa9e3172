#include "nodetr/nn/residual.hpp"

#include <stdexcept>

namespace nodetr::nn {

Residual::Residual(ModulePtr body, ModulePtr skip, bool final_relu)
    : body_(std::move(body)), skip_(std::move(skip)), final_relu_(final_relu) {
  if (!body_) throw std::invalid_argument("Residual: null body");
}

Tensor Residual::forward(const Tensor& x) {
  begin_forward();
  Tensor y = body_->forward(x);
  y += skip_ ? skip_->forward(x) : x;
  if (final_relu_) {
    float* mask = nullptr;
    if (recording()) {
      relu_mask_ = Tensor(y.shape());
      mask = relu_mask_.data();
    }
    for (index_t i = 0; i < y.numel(); ++i) {
      const bool pos = y[i] > 0.0f;
      if (mask != nullptr) mask[i] = pos ? 1.0f : 0.0f;
      if (!pos) y[i] = 0.0f;
    }
  }
  return y;
}

Tensor Residual::backward(const Tensor& grad_out) {
  require_backward_state();
  Tensor g = grad_out;
  if (final_relu_) {
    for (index_t i = 0; i < g.numel(); ++i) g[i] *= relu_mask_[i];
  }
  Tensor gx = body_->backward(g);
  gx += skip_ ? skip_->backward(g) : g;
  return gx;
}

std::vector<Module*> Residual::children() {
  std::vector<Module*> c{body_.get()};
  if (skip_) c.push_back(skip_.get());
  return c;
}

}  // namespace nodetr::nn
