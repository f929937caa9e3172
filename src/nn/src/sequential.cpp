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

Tensor Sequential::forward(const Tensor& x) {
  begin_forward();
  // `in` is the current activation: the caller's x until the first child
  // returns, then `h`, which this call owns and may update in place.
  const Tensor* in = &x;
  Tensor h;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    Module& m = *modules_[i];
    BatchNorm2d* bn = eval_batchnorm(m);
    const bool relu =
        bn != nullptr && i + 1 < modules_.size() && inference_relu(*modules_[i + 1]);
    const DepthwiseSeparableConv* dsc =
        relu && i + 2 < modules_.size() ? inference_dsc(*modules_[i + 2]) : nullptr;
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
  if (in == &x) return x;  // no children
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  require_backward_state();
  Tensor g = grad_out;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::string Sequential::name() const {
  return "Sequential[" + std::to_string(modules_.size()) + "]";
}

std::vector<Module*> Sequential::children() {
  std::vector<Module*> out;
  out.reserve(modules_.size());
  for (auto& m : modules_) out.push_back(m.get());
  return out;
}

}  // namespace nodetr::nn
