#include "nodetr/nn/linear.hpp"

#include <stdexcept>

#include "nodetr/tensor/gemm.hpp"

namespace nodetr::nn {

namespace nt = nodetr::tensor;

Linear::Linear(index_t in_features, index_t out_features, bool bias, Rng& rng)
    : in_(in_features), out_(out_features), has_bias_(bias),
      weight_("weight", rng.kaiming_normal(Shape{out_features, in_features}, in_features)),
      bias_("bias", bias ? Tensor(Shape{out_features}) : Tensor(Shape{0})) {}

Tensor Linear::forward(const Tensor& x) {
  begin_forward();
  if (x.rank() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Linear: expected (B, " + std::to_string(in_) + "), got " +
                                x.shape().to_string());
  }
  if (recording()) x_ = x;
  const index_t b = x.dim(0);
  Tensor y(Shape{b, out_});
  // y = x W^T with the bias fused into the GEMM epilogue.
  nt::gemm_blocked(b, in_, out_, nt::GemmView::plain(x.data(), in_),
                   nt::GemmView::transposed(weight_.value.data(), in_), y.data(), out_,
                   {.bias_col = has_bias_ ? bias_.value.data() : nullptr});
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  require_backward_state();
  const index_t b = grad_out.dim(0);
  // dW (out,in) += g^T (out,B) * x (B,in), accumulated straight into the grad
  // buffer instead of materializing a temporary and adding it.
  nt::gemm_blocked(out_, b, in_, nt::GemmView::transposed(grad_out.data(), out_),
                   nt::GemmView::plain(x_.data(), in_), weight_.grad.data(), in_,
                   {.accumulate = true});
  if (has_bias_) {
    for (index_t r = 0; r < b; ++r) {
      const float* row = grad_out.data() + r * out_;
      for (index_t c = 0; c < out_; ++c) bias_.grad[c] += row[c];
    }
  }
  // dx (B,in) = g (B,out) * W (out,in)
  return nt::matmul(grad_out, weight_.value);
}

std::string Linear::name() const {
  return "Linear(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

std::vector<Param*> Linear::local_parameters() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

}  // namespace nodetr::nn
