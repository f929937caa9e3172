#include "nodetr/nn/sequential.hpp"

#include "nodetr/nn/activations.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/norm.hpp"

namespace nodetr::nn {

namespace {

/// `m` as a BatchNorm2d running its eval forward without recording, else null.
BatchNorm2d* eval_batchnorm(Module& m) {
  auto* bn = dynamic_cast<BatchNorm2d*>(&m);
  return bn != nullptr && !bn->training() && !bn->recording() ? bn : nullptr;
}

/// True when `m` is a ReLU whose forward records nothing.
bool inference_relu(const Module& m) {
  const auto* relu = dynamic_cast<const ReLU*>(&m);
  return relu != nullptr && !relu->recording();
}

/// `m` as a depthwise-separable conv whose forward records nothing, else null.
const DepthwiseSeparableConv* inference_dsc(const Module& m) {
  const auto* dsc = dynamic_cast<const DepthwiseSeparableConv*>(&m);
  return dsc != nullptr && !dsc->recording() ? dsc : nullptr;
}

}  // namespace

Tensor forward_chain(std::span<Module* const> modules, const Tensor& x) {
  // `in` is the current activation: the caller's x until the first module
  // returns, then `h`, which this call owns and may update in place.
  const Tensor* in = &x;
  Tensor h;
  for (std::size_t i = 0; i < modules.size(); ++i) {
    Module& m = *modules[i];
    BatchNorm2d* bn = eval_batchnorm(m);
    const bool relu = bn != nullptr && i + 1 < modules.size() && inference_relu(*modules[i + 1]);
    const DepthwiseSeparableConv* dsc =
        relu && i + 2 < modules.size() ? inference_dsc(*modules[i + 2]) : nullptr;
    if (dsc != nullptr) {
      // BN and ReLU as the depthwise's input prologue: no pass of their own.
      h = dsc->forward_bn_relu(*in, bn->eval_params());
      in = &h;
      i += 2;
    } else if (bn != nullptr) {
      // BN and a following ReLU as one pass, never into the caller's x.
      if (in == &x) h = Tensor(x.shape());
      bn->eval_into(*in, h, relu);
      in = &h;
      if (relu) ++i;
    } else if (in == &h && inference_relu(m)) {
      ReLU::eval_into(h, h);
    } else {
      h = m.forward(*in);
      in = &h;
    }
  }
  if (in == &x) return x;  // no modules
  return h;
}

Tensor backward_chain(std::span<Module* const> modules, const Tensor& grad_out) {
  if (modules.empty()) return grad_out;
  Tensor g = modules.back()->backward(grad_out);
  for (std::size_t i = modules.size() - 1; i-- > 0;) g = modules[i]->backward(g);
  return g;
}

Tensor Sequential::forward(const Tensor& x) {
  begin_forward();
  return forward_chain(chain_, x);
}

Tensor Sequential::backward(const Tensor& grad_out) {
  require_backward_state();
  return backward_chain(chain_, grad_out);
}

std::string Sequential::name() const {
  return "Sequential[" + std::to_string(chain_.size()) + "]";
}

}  // namespace nodetr::nn
