// The float GEMM's arithmetic, written out: each output element is one
// ascending-k chain from zero, rounded the way the microkernel rounds.
#pragma once

#include <cmath>

#include "nodetr/tensor/simd.hpp"
#include "nodetr/tensor/tensor.hpp"

namespace nodetr::testing {

/// C = A B (A is m x k, B is k x n) with one chain per element: an FMA per
/// step for the vector kernels, a rounded product then a rounded add for
/// scalar_4x8. The product goes through double, where it is exact, so no
/// compiler can contract it into an FMA.
inline tensor::Tensor chain_matmul(const tensor::simd::MicroKernel& kernel, const tensor::Tensor& a,
                                   const tensor::Tensor& b) {
  const bool fma = &kernel != &tensor::simd::scalar_kernel();
  const tensor::index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  tensor::Tensor c(tensor::Shape{m, n});
  for (tensor::index_t i = 0; i < m; ++i)
    for (tensor::index_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (tensor::index_t p = 0; p < k; ++p) {
        const float x = a.at(i, p), y = b.at(p, j);
        acc = fma ? std::fma(x, y, acc)
                  : acc + static_cast<float>(static_cast<double>(x) * static_cast<double>(y));
      }
      c.at(i, j) = acc;
    }
  return c;
}

}  // namespace nodetr::testing
