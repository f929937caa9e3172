#include "nodetr/nn/activations.hpp"

#include <cmath>

namespace nodetr::nn {

Tensor ReLU::forward(const Tensor& x) {
  begin_forward();
  Tensor out(x.shape());
  float* mask = nullptr;
  if (recording()) {
    mask_ = Tensor(x.shape());
    mask = mask_.data();
  }
  for (index_t i = 0; i < x.numel(); ++i) {
    const bool pos = x[i] > 0.0f;
    if (mask != nullptr) mask[i] = pos ? 1.0f : 0.0f;
    out[i] = pos ? x[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  require_backward_state();
  Tensor gx(grad_out.shape());
  for (index_t i = 0; i < grad_out.numel(); ++i) gx[i] = grad_out[i] * mask_[i];
  return gx;
}

namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluC = 0.044715f;
}  // namespace

Tensor GELU::forward(const Tensor& x) {
  begin_forward();
  if (recording()) x_ = x;
  Tensor out(x.shape());
  for (index_t i = 0; i < x.numel(); ++i) {
    const float v = x[i];
    const float t = std::tanh(kSqrt2OverPi * (v + kGeluC * v * v * v));
    out[i] = 0.5f * v * (1.0f + t);
  }
  return out;
}

Tensor GELU::backward(const Tensor& grad_out) {
  require_backward_state();
  Tensor gx(grad_out.shape());
  for (index_t i = 0; i < grad_out.numel(); ++i) {
    const float v = x_[i];
    const float u = kSqrt2OverPi * (v + kGeluC * v * v * v);
    const float t = std::tanh(u);
    const float du = kSqrt2OverPi * (1.0f + 3.0f * kGeluC * v * v);
    const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    gx[i] = grad_out[i] * d;
  }
  return gx;
}

}  // namespace nodetr::nn
