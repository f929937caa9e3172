#include "nodetr/nn/conv_layers.hpp"

namespace nodetr::nn {

namespace nt = nodetr::tensor;

Conv2d::Conv2d(index_t in_channels, index_t out_channels, index_t kernel, index_t stride,
               index_t pad, bool bias, Rng& rng)
    : geom_{.in_channels = in_channels, .out_channels = out_channels, .kernel = kernel,
            .stride = stride, .pad = pad},
      has_bias_(bias),
      weight_("weight", rng.kaiming_normal(Shape{out_channels, in_channels, kernel, kernel},
                                           in_channels * kernel * kernel)),
      bias_("bias", bias ? Tensor(Shape{out_channels}) : Tensor(Shape{0})) {}

Tensor Conv2d::forward(const Tensor& x) {
  begin_forward();
  if (recording()) x_ = x;
  return nt::conv2d(x, weight_.value, bias_.value, geom_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  require_backward_state();
  nt::conv2d_backward_params(x_, grad_out, geom_, weight_.grad, bias_.grad);
  return nt::conv2d_backward_input(grad_out, weight_.value, geom_, x_.dim(2), x_.dim(3));
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(geom_.in_channels) + "->" +
         std::to_string(geom_.out_channels) + ",k" + std::to_string(geom_.kernel) + ",s" +
         std::to_string(geom_.stride) + ")";
}

std::vector<Param*> Conv2d::local_parameters() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

DepthwiseSeparableConv::DepthwiseSeparableConv(index_t in_channels, index_t out_channels,
                                               index_t kernel, index_t stride, index_t pad,
                                               Rng& rng)
    : dw_geom_{.in_channels = in_channels, .out_channels = in_channels, .kernel = kernel,
               .stride = stride, .pad = pad},
      pw_geom_{.in_channels = in_channels, .out_channels = out_channels, .kernel = 1, .stride = 1,
               .pad = 0},
      dw_weight_("dw_weight",
                 rng.kaiming_normal(Shape{in_channels, kernel, kernel}, kernel * kernel)),
      pw_weight_("pw_weight",
                 rng.kaiming_normal(Shape{out_channels, in_channels, 1, 1}, in_channels)) {}

Tensor DepthwiseSeparableConv::forward(const Tensor& x) {
  begin_forward();
  Tensor out = nt::depthwise_separable_conv2d(x, dw_weight_.value, pw_weight_.value, dw_geom_,
                                              recording() ? &mid_ : nullptr);
  if (recording()) x_ = x;
  return out;
}

Tensor DepthwiseSeparableConv::forward_bn_relu(const Tensor& x,
                                               const tensor::BatchNormEval& bn) const {
  return nt::depthwise_separable_conv2d(x, dw_weight_.value, pw_weight_.value, dw_geom_,
                                        /*mid=*/nullptr, &bn);
}

Tensor DepthwiseSeparableConv::backward(const Tensor& grad_out) {
  require_backward_state();
  Tensor no_bias;
  nt::conv2d_backward_params(mid_, grad_out, pw_geom_, pw_weight_.grad, no_bias);
  Tensor gmid =
      nt::conv2d_backward_input(grad_out, pw_weight_.value, pw_geom_, mid_.dim(2), mid_.dim(3));
  nt::depthwise_conv2d_backward_params(x_, gmid, dw_geom_, dw_weight_.grad, no_bias);
  return nt::depthwise_conv2d_backward_input(gmid, dw_weight_.value, dw_geom_, x_.dim(2),
                                             x_.dim(3));
}

std::string DepthwiseSeparableConv::name() const {
  return "DSC(" + std::to_string(dw_geom_.in_channels) + "->" +
         std::to_string(pw_geom_.out_channels) + ",k" + std::to_string(dw_geom_.kernel) + ")";
}

std::vector<Param*> DepthwiseSeparableConv::local_parameters() {
  return {&dw_weight_, &pw_weight_};
}

}  // namespace nodetr::nn
