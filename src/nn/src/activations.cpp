#include "nodetr/nn/activations.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "nodetr/tensor/conv.hpp"

namespace nodetr::nn {

void ReLU::eval_into(const Tensor& x, Tensor& out) {
  if (out.numel() != x.numel()) {
    throw std::invalid_argument("ReLU::eval_into: output size " + std::to_string(out.numel()) +
                                " != input " + std::to_string(x.numel()));
  }
  const float* p = x.data();
  float* o = out.data();
  for (index_t i = 0; i < x.numel(); ++i) o[i] = tensor::relu(p[i]);
}

Tensor ReLU::forward(const Tensor& x) {
  begin_forward();
  Tensor out(x.shape());
  if (!recording()) {
    eval_into(x, out);
    return out;
  }
  mask_ = Tensor(x.shape());
  for (index_t i = 0; i < x.numel(); ++i) {
    const bool pos = x[i] > 0.0f;
    mask_[i] = pos ? 1.0f : 0.0f;
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
