// Bit-accurate fixed-point kernels.
//
// Semantics mirror an HLS datapath built from ap_fixed<W,I,AP_RND,AP_SAT>:
// products are formed exactly at (fa+fb) fractional bits in a wide
// accumulator, and results are rounded/saturated into the destination format
// at the layer boundary. All kernels are deterministic and platform
// independent, so the software simulation reproduces the accelerator's
// numerics exactly.
//
// The GEMMs accumulate in int64 when a bound on the operands' magnitudes
// proves no partial sum can overflow it, and in __int128 otherwise; both give
// the same bits (DESIGN.md, "Bit-exact fixed point").
#pragma once

#include <cstdint>
#include <vector>

#include "nodetr/fx/fixed_tensor.hpp"

namespace nodetr::fx {

/// Implementations of the integer kernels. Every form computes the same
/// integer sums and rounds them the same way, so every form gives the same
/// bits; they differ only in speed.
enum class KernelForm { kPortable, kAvx2 };

/// The forms this CPU runs, fastest first; the last is always kPortable.
/// The kernels use the first.
[[nodiscard]] const std::vector<KernelForm>& kernel_forms();

/// The right-hand operand of a fixed GEMM packed once as a row-major k x n
/// panel of codes — int32 when every code fits, int64 otherwise — with its
/// largest |code| cached for the accumulation bound. Pack a weight once and
/// reuse it across calls; qmatmul/qmatmul_nt/qlinear pack per call.
class PackedB {
 public:
  PackedB() = default;
  /// Pack B (k x n), the operand of qmatmul.
  [[nodiscard]] static PackedB from_kn(const FixedTensor& b);
  /// Pack B from Bt (n x k), the operand of qmatmul_nt and qlinear.
  [[nodiscard]] static PackedB from_nk(const FixedTensor& bt);

  [[nodiscard]] index_t k() const { return k_; }
  [[nodiscard]] index_t n() const { return n_; }
  [[nodiscard]] const FixedFormat& format() const { return format_; }
  [[nodiscard]] std::uint64_t max_abs() const { return max_abs_; }
  /// True when every code fits int32 and codes32() holds the panel;
  /// otherwise codes64() does.
  [[nodiscard]] bool is_int32() const { return codes64_.empty(); }
  [[nodiscard]] const std::int32_t* codes32() const { return codes32_.data(); }
  [[nodiscard]] const std::int64_t* codes64() const { return codes64_.data(); }

 private:
  /// Pack `src` as B (k x n), or as Bt (n x k) when `nk`.
  static PackedB pack(const FixedTensor& src, bool nk);

  index_t k_ = 0, n_ = 0;
  FixedFormat format_{};
  std::uint64_t max_abs_ = 0;
  std::vector<std::int32_t> codes32_;
  std::vector<std::int64_t> codes64_;
};

/// C(MxN) = A(MxK) * B(KxN) for a B packed ahead of time.
[[nodiscard]] FixedTensor qmatmul(const FixedTensor& a, const PackedB& b,
                                  FixedFormat out_format);

/// C(MxN) = A(MxK) * B(KxN); A and B may use different formats. The exact
/// wide-product accumulation is rounded once into `out_format`.
[[nodiscard]] FixedTensor qmatmul(const FixedTensor& a, const FixedTensor& b,
                                  FixedFormat out_format);

/// C(MxN) = A(MxK) * B(NxK)^T.
[[nodiscard]] FixedTensor qmatmul_nt(const FixedTensor& a, const FixedTensor& b,
                                     FixedFormat out_format);

/// Elementwise sum. Operands must share a format; result saturates into it.
[[nodiscard]] FixedTensor qadd(const FixedTensor& a, const FixedTensor& b);

/// Elementwise ReLU (a comparator and a multiplexer in hardware).
[[nodiscard]] FixedTensor qrelu(const FixedTensor& a);

/// Multiply every element by a float scale factor, quantized to the operand's
/// own format before use (e.g. the 1/sqrt(D_h) attention scaling).
[[nodiscard]] FixedTensor qscale(const FixedTensor& a, float scale);

/// The LayerNorm epsilon of the MHSA block (Eq. 17).
inline constexpr float kLayerNormEps = 1e-5f;

/// Row-wise LayerNorm over the last axis of a rank-2 tensor, with learned
/// gain/bias in the parameter format. Mean/variance accumulate exactly; the
/// reciprocal square root uses a float approximation of the hardware's
/// iterative rsqrt, then requantizes (documented substitution).
[[nodiscard]] FixedTensor qlayernorm_rows(const FixedTensor& x, const FixedTensor& gamma,
                                          const FixedTensor& beta, float eps = kLayerNormEps);

/// Linear layer y = x * W^T + b with x in feature format, W/b in parameter
/// format, result in feature format. The bias joins the wide accumulator at
/// the product scale, so each output is rounded exactly once (matching a
/// single-pass ap_fixed MAC chain — no double rounding at the boundary).
[[nodiscard]] FixedTensor qlinear(const FixedTensor& x, const FixedTensor& weight_t,
                                  const FixedTensor& bias, FixedFormat out_format);

/// Error statistics between a float reference and a fixed-point result.
struct QuantError {
  float mean_abs = 0.0f;
  float max_abs = 0.0f;
};
[[nodiscard]] QuantError quant_error(const Tensor& reference, const FixedTensor& result);

}  // namespace nodetr::fx
