// Dense matrix multiplication kernels.
//
// Everything routes through one cache-blocked, register-tiled kernel
// (`gemm_blocked`): an MR x NR microkernel — selected at runtime from the
// SIMD dispatch table (simd.hpp), with the blocking derived from the caches
// (tune.hpp) — does the arithmetic, reading A (the weights, in every layer)
// in place by strides. A plain B (the activations of a pointwise conv) is
// read in place too, by its row stride, in full NR-wide micro-panels; its
// ragged last panel, and transposed and conv views, are packed into
// contiguous micro-panels sized to the cache hierarchy. Operands are
// described by views (pointer + leading dimension + transpose flag), so the
// transposed product variants and the per-head strided sub-matrices in
// attention run through the same kernel without materializing copies. A
// conv view stands for im2col's column matrix of some input planes, and the
// B pack gathers it straight from them. The jr/ir tile loops of each
// macro-kernel block are partitioned across the thread pool BLIS-style, so
// skinny shapes (few rows, many columns) parallelize as well as square ones.
//
// Every output element is one ascending-k chain regardless of blocking,
// operand views, whether B is read in place or packed (the kernel reads the
// same values either way), or how tiles are split across threads: each k
// panel after the first continues the chain from C. So float results are
// bitwise identical across MC/KC/NC, batch sizes, thread counts and the FMA
// kernels' tile shapes, which the serving engine's differential tests rely
// on. They differ between the FMA kernels and `scalar_4x8` (one rounding per
// FMA against two per multiply-add).
#pragma once

#include "nodetr/tensor/conv.hpp"
#include "nodetr/tensor/tensor.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nodetr::tensor {

/// Read-only view of a row-major matrix operand.
struct GemmView {
  const float* data = nullptr;
  index_t ld = 0;      ///< stride between stored rows
  bool trans = false;  ///< stored matrix is the transpose of the operand
  bool conv = false;   ///< conv form (B only): see `conv_planes`
  Conv2dGeom geom{};   ///< conv form: the convolution
  index_t h = 0, w = 0;  ///< conv form: the input plane extents

  /// Operand stored as-is: element (i, j) at data[i * ld + j].
  static GemmView plain(const float* data, index_t ld) { return {.data = data, .ld = ld}; }
  /// Operand is the transpose of storage: element (i, j) at data[j * ld + i].
  static GemmView transposed(const float* data, index_t ld) {
    return {.data = data, .ld = ld, .trans = true};
  }
  /// B operand that is the (C*K*K) x (Ho*Wo) column matrix im2col builds
  /// from the (C, h, w) planes at `planes` under `g`. The B pack gathers its
  /// panels straight from the planes (im2col_block), so the matrix is never
  /// stored and its values are im2col's.
  static GemmView conv_planes(const float* planes, index_t h, index_t w, const Conv2dGeom& g) {
    return {.data = planes, .conv = true, .geom = g, .h = h, .w = w};
  }
};

/// Work fused into the kernel's output pass while the C panel is cache-hot:
///   c = relu?( alpha * (A B) + bias_col[j] + bias_row[i] + residual[i, j] )
/// Fields left at their defaults are skipped. `accumulate` instead produces
/// c += A B, adding the finished product to C, and ignores every other field.
struct GemmEpilogue {
  float alpha = 1.0f;               ///< scales the product
  const float* bias_col = nullptr;  ///< length n, added to every row
  const float* bias_row = nullptr;  ///< length m, added to every column
  const float* residual = nullptr;  ///< m x n, added elementwise
  index_t residual_ld = 0;          ///< row stride of `residual` (0 means n)
  bool relu = false;
  bool accumulate = false;  ///< c += A B; all epilogue fields above ignored
};

/// C(m x n) = op(A)(m x k) * op(B)(k x n) with an optional fused epilogue.
/// C is row-major with row stride `ldc`; views may alias neither C nor the
/// residual. Zero-extent problems are handled (k == 0 stores zeros, then the
/// epilogue). Only B may be a conv view, and its matrix must be k x n;
/// anything else throws std::invalid_argument. Runs the process-wide config
/// (tune::gemm_config()).
void gemm_blocked(index_t m, index_t k, index_t n, GemmView a, GemmView b, float* c, index_t ldc,
                  const GemmEpilogue& epilogue = {});

/// Same kernel with an explicit (microkernel, MC, KC, NC) plan — the
/// per-variant differential tests. `cfg` must carry a non-null kernel and
/// positive blocking.
void gemm_blocked_cfg(index_t m, index_t k, index_t n, GemmView a, GemmView b, float* c,
                      index_t ldc, const tune::GemmConfig& cfg,
                      const GemmEpilogue& epilogue = {});

/// C = A(MxK) * B(KxN).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A(MxK) * B(NxK)^T. Avoids materializing the transpose.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = A(KxM)^T * B(KxN). Avoids materializing the transpose.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Raw kernel: c(MxN) += a(MxK) * b(KxN), all row-major, no allocation
/// beyond thread-local scratch.
void gemm_accumulate(const float* a, const float* b, float* c, index_t m, index_t k, index_t n);

}  // namespace nodetr::tensor
