// The MHSA IP's fixed-point datapath (Fig. 4, Eqs. 15-17) as one kernel.
// Per image: the Q/K/V projection as one product against a [Wq|Wk|Wv] panel
// packed at construction, then one fused pass per head, then the optional
// output LayerNorm in place. For each query row the head pass forms the
// Q_h K_h^T and Q_h R_h^T sums, rounds, adds, scales and rectifies them in
// registers, and rounds A V_h straight into the head's output columns.
//
// The integer steps are exactly those of the op-by-op chain
//   qmatmul(X, Wq), qmatmul(X, Wk), qmatmul(X, Wv), then per head
//   qmatmul_nt(Q_h, K_h) [+ qmatmul(Q_h, R_h^T), qadd] -> qscale -> qrelu
//   -> qmatmul(A, V_h), then qlayernorm_rows
// and every integer sum is exact, so the codes are bitwise the chain's
// (DESIGN.md, "Fixed MHSA IP dataflow"). Each product proves its own int64
// bound from its operands' largest codes and accumulates in __int128 where
// the proof fails (counted in fx.accum.wide_fallbacks). Scratch is one
// image's, from the calling thread's arena, and nothing forks the global
// pool.
#pragma once

#include <cstdint>
#include <vector>

#include "nodetr/fx/qops.hpp"

namespace nodetr::fx {

class QMhsa {
 public:
  QMhsa() = default;
  /// `wq`, `wk`, `wv`: (dim, dim) projections, all in one parameter format.
  /// `rel`: one (tokens, dim / heads) relative-position matrix R_h per head,
  /// or empty for none. `ln_gamma`, `ln_beta`: (dim) LayerNorm gain and bias,
  /// or empty for none. Scores and outputs are in `feature`, and `scale` (the
  /// 1/sqrt(dh) factor) is quantized into it, as qscale does.
  QMhsa(const FixedTensor& wq, const FixedTensor& wk, const FixedTensor& wv,
        const std::vector<FixedTensor>& rel, const FixedTensor& ln_gamma,
        const FixedTensor& ln_beta, index_t heads, index_t tokens, FixedFormat feature,
        float scale);

  /// Token rows in, token rows out: `x` is (images * tokens, dim) codes in
  /// any format, one image's tokens after another; the result is the same
  /// shape in the feature format. Each image attends only to its own tokens.
  [[nodiscard]] FixedTensor run(const FixedTensor& x,
                                KernelForm form = kernel_forms().front()) const;

  /// Feature maps in, feature maps out, as the IP's streams carry them:
  /// `images` (dim, tokens) float maps at `x` are quantized into the feature
  /// format, attended, and dequantized into `y` — the same floats as
  /// FixedTensor::from_float, run() and to_float() around a transpose.
  /// Runs in the host's first kernel form.
  void run_maps(const float* x, index_t images, float* y) const;

 private:
  /// Words of run_image()'s scratch: one image's, whatever the batch.
  [[nodiscard]] index_t scratch_words() const;
  /// One image: (tokens, dim) codes at `x_frac` fractional bits into `out`,
  /// which may be `x` (the QKV product reads `x` before `out` is written).
  void run_image(const std::int64_t* x, int x_frac, std::int64_t* out, std::int64_t* scratch,
                 KernelForm form) const;

  index_t dim_ = 0, heads_ = 0, tokens_ = 0;
  FixedFormat feature_{};
  std::int64_t scale_code_ = 0;
  PackedB wqkv_;  ///< (dim, 3 dim): [Wq | Wk | Wv]
  FixedFormat rel_format_{};
  /// Per head, R_h^T as a (dh, padded tokens) panel: column j holds token
  /// j's codes and the padding columns are zero.
  std::vector<std::int64_t> rel_;
  std::vector<std::uint64_t> rel_max_;  ///< per head, the largest |code|
  /// The LayerNorm gain and bias as doubles; empty for no LayerNorm.
  std::vector<double> ln_g_, ln_b_;
};

}  // namespace nodetr::fx
