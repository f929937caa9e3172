#include "nodetr/nn/norm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nodetr/tensor/parallel.hpp"

namespace nodetr::nn {

namespace {

/// Elements one pool task of the eval-mode pass covers; a pass over fewer
/// runs on the calling thread.
constexpr index_t kEvalChunkElems = index_t{1} << 16;

void check_bn_input(const Tensor& x, index_t channels) {
  if (x.rank() != 4 || x.dim(1) != channels) {
    throw std::invalid_argument("BatchNorm2d: bad input shape " + x.shape().to_string());
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(index_t channels, float eps, float momentum)
    : channels_(channels), eps_(eps), momentum_(momentum),
      gamma_("gamma", Tensor(Shape{channels}, 1.0f)), beta_("beta", Tensor(Shape{channels})),
      running_mean_(Shape{channels}), running_var_(Shape{channels}, 1.0f) {}

void BatchNorm2d::eval_into(const Tensor& x, Tensor& out, bool relu) const {
  check_bn_input(x, channels_);
  if (out.shape() != x.shape()) {
    throw std::invalid_argument("BatchNorm2d::eval_into: output shape " +
                                out.shape().to_string() + " != input " + x.shape().to_string());
  }
  const index_t c_ = x.dim(1), plane = x.dim(2) * x.dim(3);
  const tensor::BatchNormEval params = eval_params();
  // Each task owns whole (sample, channel) planes; `out` may alias `x`
  // because every element is read before it is written.
  tensor::parallel_for(0, x.dim(0) * c_, [&](index_t lo, index_t hi) {
    for (index_t sc = lo; sc < hi; ++sc) {
      const tensor::BnChannel bn = params.channel(sc % c_);
      const float* p = x.data() + sc * plane;
      float* o = out.data() + sc * plane;
      if (relu) {
        for (index_t i = 0; i < plane; ++i) o[i] = tensor::relu(bn(p[i]));
      } else {
        for (index_t i = 0; i < plane; ++i) o[i] = bn(p[i]);
      }
    }
  }, std::max<index_t>(1, kEvalChunkElems / std::max<index_t>(plane, 1)));
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  check_bn_input(x, channels_);
  begin_forward();
  if (!training_ && !recording()) {
    Tensor out(x.shape());
    eval_into(x, out, /*relu=*/false);
    return out;
  }
  const index_t b = x.dim(0), c_ = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t plane = h * w;
  const index_t n = b * plane;
  Tensor out(x.shape());
  if (recording()) {
    xhat_ = Tensor(x.shape());
    inv_std_ = Tensor(Shape{c_});
  }
  for (index_t c = 0; c < c_; ++c) {
    float mean, var;
    if (training_) {
      double s = 0.0, s2 = 0.0;
      for (index_t s_i = 0; s_i < b; ++s_i) {
        const float* p = x.data() + (s_i * c_ + c) * plane;
        for (index_t i = 0; i < plane; ++i) {
          s += p[i];
          s2 += static_cast<double>(p[i]) * p[i];
        }
      }
      mean = static_cast<float>(s / n);
      var = static_cast<float>(s2 / n - static_cast<double>(mean) * mean);
      var = std::max(var, 0.0f);
      running_mean_[c] = (1 - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1 - momentum_) * running_var_[c] + momentum_ * var;
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float istd = 1.0f / std::sqrt(var + eps_);
    if (recording()) inv_std_[c] = istd;
    const float g = gamma_.value[c], bt = beta_.value[c];
    for (index_t s_i = 0; s_i < b; ++s_i) {
      const float* p = x.data() + (s_i * c_ + c) * plane;
      float* xh = recording() ? xhat_.data() + (s_i * c_ + c) * plane : nullptr;
      float* o = out.data() + (s_i * c_ + c) * plane;
      for (index_t i = 0; i < plane; ++i) {
        const float v = (p[i] - mean) * istd;
        if (xh != nullptr) xh[i] = v;
        o[i] = g * v + bt;
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  require_backward_state();
  const index_t b = grad_out.dim(0), c_ = grad_out.dim(1), h = grad_out.dim(2),
                w = grad_out.dim(3);
  const index_t plane = h * w;
  const index_t n = b * plane;
  Tensor gx(grad_out.shape());
  for (index_t c = 0; c < c_; ++c) {
    // Accumulate sum(g) and sum(g * xhat) for this channel.
    double sg = 0.0, sgx = 0.0;
    for (index_t s_i = 0; s_i < b; ++s_i) {
      const float* g = grad_out.data() + (s_i * c_ + c) * plane;
      const float* xh = xhat_.data() + (s_i * c_ + c) * plane;
      for (index_t i = 0; i < plane; ++i) {
        sg += g[i];
        sgx += static_cast<double>(g[i]) * xh[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sgx);
    beta_.grad[c] += static_cast<float>(sg);
    if (training_) {
      const float coeff = gamma_.value[c] * inv_std_[c] / static_cast<float>(n);
      const float fn = static_cast<float>(n);
      for (index_t s_i = 0; s_i < b; ++s_i) {
        const float* g = grad_out.data() + (s_i * c_ + c) * plane;
        const float* xh = xhat_.data() + (s_i * c_ + c) * plane;
        float* o = gx.data() + (s_i * c_ + c) * plane;
        for (index_t i = 0; i < plane; ++i) {
          o[i] = coeff * (fn * g[i] - static_cast<float>(sg) - xh[i] * static_cast<float>(sgx));
        }
      }
    } else {
      // Inference-mode backward (running stats are constants).
      const float coeff = gamma_.value[c] * inv_std_[c];
      for (index_t s_i = 0; s_i < b; ++s_i) {
        const float* g = grad_out.data() + (s_i * c_ + c) * plane;
        float* o = gx.data() + (s_i * c_ + c) * plane;
        for (index_t i = 0; i < plane; ++i) o[i] = coeff * g[i];
      }
    }
  }
  return gx;
}

std::string BatchNorm2d::name() const { return "BatchNorm2d(" + std::to_string(channels_) + ")"; }

LayerNorm::LayerNorm(index_t dim, float eps)
    : dim_(dim), eps_(eps), gamma_("gamma", Tensor(Shape{dim}, 1.0f)),
      beta_("beta", Tensor(Shape{dim})) {}

Tensor LayerNorm::forward(const Tensor& x) {
  if (x.dim(-1) != dim_) {
    throw std::invalid_argument("LayerNorm: last axis must be " + std::to_string(dim_));
  }
  begin_forward();
  const index_t rows = x.numel() / dim_;
  Tensor out(x.shape());
  if (recording()) {
    xhat_ = Tensor(x.shape());
    inv_std_ = Tensor(Shape{rows});
  }
  for (index_t r = 0; r < rows; ++r) {
    const float* p = x.data() + r * dim_;
    float* o = out.data() + r * dim_;
    double s = 0.0, s2 = 0.0;
    for (index_t i = 0; i < dim_; ++i) {
      s += p[i];
      s2 += static_cast<double>(p[i]) * p[i];
    }
    const float mean = static_cast<float>(s / dim_);
    const float var =
        std::max(static_cast<float>(s2 / dim_ - static_cast<double>(mean) * mean), 0.0f);
    const float istd = 1.0f / std::sqrt(var + eps_);
    float* xh = nullptr;
    if (recording()) {
      inv_std_[r] = istd;
      xh = xhat_.data() + r * dim_;
    }
    for (index_t i = 0; i < dim_; ++i) {
      const float v = (p[i] - mean) * istd;
      if (xh != nullptr) xh[i] = v;
      o[i] = gamma_.value[i] * v + beta_.value[i];
    }
  }
  return out;
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  require_backward_state();
  const index_t rows = grad_out.numel() / dim_;
  Tensor gx(grad_out.shape());
  const float fd = static_cast<float>(dim_);
  for (index_t r = 0; r < rows; ++r) {
    const float* g = grad_out.data() + r * dim_;
    const float* xh = xhat_.data() + r * dim_;
    float* o = gx.data() + r * dim_;
    double sg = 0.0, sgx = 0.0;
    for (index_t i = 0; i < dim_; ++i) {
      const float gg = g[i] * gamma_.value[i];
      sg += gg;
      sgx += static_cast<double>(gg) * xh[i];
      gamma_.grad[i] += g[i] * xh[i];
      beta_.grad[i] += g[i];
    }
    const float istd = inv_std_[r];
    for (index_t i = 0; i < dim_; ++i) {
      const float gg = g[i] * gamma_.value[i];
      o[i] = istd * (gg - static_cast<float>(sg) / fd -
                     xh[i] * static_cast<float>(sgx) / fd);
    }
  }
  return gx;
}

std::string LayerNorm::name() const { return "LayerNorm(" + std::to_string(dim_) + ")"; }

}  // namespace nodetr::nn
