// Functional model of the MHSA IP core (Fig. 4 / Sec. V).
//
// The core executes the paper's *modified* MHSA — learnable 2-D relative
// positional encoding fused as Q R^T (Eq. 15), ReLU activation instead of
// softmax (Eq. 16), and an optional output LayerNorm (Eq. 17) — over one
// feature map. Two datapaths:
//   - float32: reference dataflow, bit-identical to the software module;
//   - fixed:   bit-accurate emulation of the ap_fixed datapath, with feature
//              maps in the scheme's feature format and parameters quantized
//              once into the parameter format (as the DMA'd weights would
//              be). This is what makes Table VIII and Figs. 9-10 exact.
//
// Latency comes from the analytic CycleModel; run() reports the cycles of
// the last invocation so callers (the rt::ZynqBoard) can account time.
#pragma once

#include "nodetr/fx/qmhsa.hpp"
#include "nodetr/hls/cycle_model.hpp"
#include "nodetr/nn/attention.hpp"

namespace nodetr::hls {

using nodetr::tensor::Tensor;

/// The learned tensors an MHSA IP needs, in float (pre-quantization).
struct MhsaWeights {
  Tensor wq, wk, wv;        ///< (D, D)
  Tensor rel_h, rel_w;      ///< (heads, H, Dh), (heads, W, Dh); empty if unused
  Tensor ln_gamma, ln_beta; ///< (D); empty if the core skips LayerNorm

  /// Extract from a trained software module (weights are copied).
  static MhsaWeights from_module(nodetr::nn::MultiHeadSelfAttention& mhsa);
};

class MhsaIpCore {
 public:
  /// Geometry of `point` must match the weight shapes.
  MhsaIpCore(MhsaDesignPoint point, MhsaWeights weights);

  /// Execute on (B, D, H, W) or (D, H, W); returns the same shape in float.
  [[nodiscard]] Tensor run(const Tensor& x);

  /// Cycle cost of the last run() (per batch element x batch).
  [[nodiscard]] const CycleBreakdown& last_cycles() const { return last_cycles_; }
  [[nodiscard]] const MhsaDesignPoint& point() const { return point_; }

  /// Bytes transferred over the HP port per invocation: input + Wq/Wk/Wv
  /// (+ relative tables, LayerNorm params) + output, at 32-bit beats.
  [[nodiscard]] std::int64_t dma_bytes_per_image() const;

  /// The parameter share of the DMA traffic (Wq/Wk/Wv, relative tables,
  /// LayerNorm params) — paid once per START when the design point is
  /// WeightResidency::kBatchResident. This is the *streamed* byte count of
  /// the design point's WeightWire: a block-quantized wire moves the packed
  /// codes + per-block scales, not the logical 32-bit words.
  [[nodiscard]] std::int64_t weight_dma_bytes() const;
  /// The logical float32 size of the same parameters — what a word32 wire
  /// would stream. weight_dma_bytes() == weight_float_bytes() iff the wire
  /// is WeightWire::kWord32; the gap is the DMA saving the quantized wire
  /// buys (DeviceCounters::weight_bytes_float reports it per board).
  [[nodiscard]] std::int64_t weight_float_bytes() const;
  /// The per-image share of the DMA traffic (input + output feature maps).
  [[nodiscard]] std::int64_t io_dma_bytes_per_image() const;
  /// Host -> device share of the per-image traffic (input feature map).
  [[nodiscard]] std::int64_t input_dma_bytes_per_image() const;
  /// Device -> host share of the per-image traffic (output feature map).
  [[nodiscard]] std::int64_t output_dma_bytes_per_image() const;

  /// Fixed-in / fixed-out datapath on token rows (N, D) in the scheme's
  /// feature format — the exact arithmetic a full-model fixed pipeline
  /// composes with (used by QuantizedExecutor). Several images' tokens may be
  /// stacked, (images * N, D); each image attends only to its own tokens.
  /// Runs on the calling thread.
  [[nodiscard]] fx::FixedTensor run_fixed_tokens(const fx::FixedTensor& tokens) const;

 private:
  [[nodiscard]] Tensor run_tokens_float(const Tensor& tokens) const;

  MhsaDesignPoint point_;
  MhsaWeights weights_;
  // The fixed datapath, its parameters quantized and packed once at
  // construction: the [Wq|Wk|Wv] panel, each head's relative-position matrix
  // R_h, and the LayerNorm gain/bias.
  fx::QMhsa fixed_;
  CycleBreakdown last_cycles_;
  CycleModel cycle_model_;
};

}  // namespace nodetr::hls
