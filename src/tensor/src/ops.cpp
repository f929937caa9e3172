#include "nodetr/tensor/ops.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nodetr::tensor {

Tensor map(const Tensor& a, const std::function<float(float)>& fn) {
  Tensor out(a.shape());
  for (index_t i = 0; i < a.numel(); ++i) out[i] = fn(a[i]);
  return out;
}

Tensor zip(const Tensor& a, const Tensor& b, const std::function<float(float, float)>& fn) {
  if (!a.same_shape(b)) throw std::invalid_argument("zip: shape mismatch");
  Tensor out(a.shape());
  for (index_t i = 0; i < a.numel(); ++i) out[i] = fn(a[i], b[i]);
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out(a.shape());
  for (index_t i = 0; i < a.numel(); ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
  return out;
}

Tensor abs(const Tensor& a) {
  Tensor out(a.shape());
  for (index_t i = 0; i < a.numel(); ++i) out[i] = std::fabs(a[i]);
  return out;
}

float sum(const Tensor& a) {
  double acc = 0.0;  // double accumulator: keeps reductions stable for big tensors
  for (index_t i = 0; i < a.numel(); ++i) acc += a[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) return 0.0f;
  return sum(a) / static_cast<float>(a.numel());
}

float max(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max: empty tensor");
  float m = a[0];
  for (index_t i = 1; i < a.numel(); ++i) m = std::max(m, a[i]);
  return m;
}

float min(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min: empty tensor");
  float m = a[0];
  for (index_t i = 1; i < a.numel(); ++i) m = std::min(m, a[i]);
  return m;
}

index_t argmax(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("argmax: empty tensor");
  index_t best = 0;
  for (index_t i = 1; i < a.numel(); ++i) {
    if (a[i] > a[best]) best = i;
  }
  return best;
}

float variance(const Tensor& a) {
  if (a.numel() == 0) return 0.0f;
  const float mu = mean(a);
  double acc = 0.0;
  for (index_t i = 0; i < a.numel(); ++i) {
    const double d = a[i] - mu;
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(a.numel()));
}

float l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (index_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(a[i]) * a[i];
  return static_cast<float>(std::sqrt(acc));
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("max_abs_diff: shape mismatch");
  float m = 0.0f;
  for (index_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

float mean_abs_diff(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("mean_abs_diff: shape mismatch");
  if (a.numel() == 0) return 0.0f;
  double acc = 0.0;
  for (index_t i = 0; i < a.numel(); ++i) acc += std::fabs(a[i] - b[i]);
  return static_cast<float>(acc / static_cast<double>(a.numel()));
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax_rows: rank must be 2");
  const index_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out(logits.shape());
  for (index_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    float m = -std::numeric_limits<float>::infinity();
    for (index_t c = 0; c < cols; ++c) m = std::max(m, in[c]);
    double denom = 0.0;
    for (index_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - m);
      denom += o[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (index_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("log_softmax_rows: rank must be 2");
  const index_t rows = logits.dim(0), cols = logits.dim(1);
  Tensor out(logits.shape());
  for (index_t r = 0; r < rows; ++r) {
    const float* in = logits.data() + r * cols;
    float* o = out.data() + r * cols;
    float m = -std::numeric_limits<float>::infinity();
    for (index_t c = 0; c < cols; ++c) m = std::max(m, in[c]);
    double denom = 0.0;
    for (index_t c = 0; c < cols; ++c) denom += std::exp(in[c] - m);
    const float log_denom = m + static_cast<float>(std::log(denom));
    for (index_t c = 0; c < cols; ++c) o[c] = in[c] - log_denom;
  }
  return out;
}

Tensor concat0(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat0: empty input");
  std::vector<index_t> dims = parts[0].shape().dims();
  index_t total0 = 0;
  for (const auto& p : parts) {
    auto d = p.shape().dims();
    if (d.size() != dims.size()) throw std::invalid_argument("concat0: rank mismatch");
    for (std::size_t i = 1; i < d.size(); ++i) {
      if (d[i] != dims[i]) throw std::invalid_argument("concat0: trailing extent mismatch");
    }
    total0 += d[0];
  }
  dims[0] = total0;
  Tensor out{Shape(dims)};
  float* dst = out.data();
  for (const auto& p : parts) {
    std::copy(p.data(), p.data() + p.numel(), dst);
    dst += p.numel();
  }
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.same_shape(b)) return false;
  for (index_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol + rtol * std::fabs(b[i])) return false;
  }
  return true;
}

}  // namespace nodetr::tensor
