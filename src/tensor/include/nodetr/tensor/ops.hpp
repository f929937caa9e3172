// Elementwise maps, reductions and shape-aware helpers on Tensor.
#pragma once

#include <functional>

#include "nodetr/tensor/tensor.hpp"

namespace nodetr::tensor {

// ---- elementwise maps -------------------------------------------------------

/// out[i] = fn(a[i]).
[[nodiscard]] Tensor map(const Tensor& a, const std::function<float(float)>& fn);
/// out[i] = fn(a[i], b[i]); shapes must match.
[[nodiscard]] Tensor zip(const Tensor& a, const Tensor& b,
                         const std::function<float(float, float)>& fn);

[[nodiscard]] Tensor relu(const Tensor& a);
[[nodiscard]] Tensor abs(const Tensor& a);

// ---- reductions --------------------------------------------------------------

[[nodiscard]] float sum(const Tensor& a);
[[nodiscard]] float mean(const Tensor& a);
[[nodiscard]] float max(const Tensor& a);
[[nodiscard]] float min(const Tensor& a);
/// Index of the maximum element (first occurrence).
[[nodiscard]] index_t argmax(const Tensor& a);
/// Population variance.
[[nodiscard]] float variance(const Tensor& a);
/// sqrt(sum(a^2)).
[[nodiscard]] float l2_norm(const Tensor& a);
/// max_i |a[i] - b[i]|.
[[nodiscard]] float max_abs_diff(const Tensor& a, const Tensor& b);
/// mean_i |a[i] - b[i]|.
[[nodiscard]] float mean_abs_diff(const Tensor& a, const Tensor& b);

// ---- structured ops ------------------------------------------------------------

/// Row-wise softmax over the last axis of a rank-2 tensor.
[[nodiscard]] Tensor softmax_rows(const Tensor& logits);
/// Row-wise log-softmax over the last axis of a rank-2 tensor.
[[nodiscard]] Tensor log_softmax_rows(const Tensor& logits);
/// Concatenate along axis 0; all other extents must match.
[[nodiscard]] Tensor concat0(const std::vector<Tensor>& parts);

/// True if |a[i]-b[i]| <= atol + rtol*|b[i]| for every i (and shapes match).
[[nodiscard]] bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
                            float atol = 1e-6f);

}  // namespace nodetr::tensor
