// Functional model of the MHSA IP core (Fig. 4 / Sec. V).
//
// The core executes the paper's *modified* MHSA — learnable 2-D relative
// positional encoding fused as Q R^T (Eq. 15), ReLU activation instead of
// softmax (Eq. 16), and an optional output LayerNorm (Eq. 17) — over one
// feature map. Each core builds exactly one datapath, picked by the design
// point's dtype:
//   - float32: the software module itself, an nn::MultiHeadSelfAttention
//              replica on the IP's weights run as inference, so its outputs
//              are bitwise the module's inference forward;
//   - fixed:   bit-accurate emulation of the ap_fixed datapath (fx::QMhsa),
//              with feature maps in the scheme's feature format and
//              parameters quantized once into the parameter format (as the
//              DMA'd weights would be). This is what makes Table VIII and
//              Figs. 9-10 exact.
//
// Latency comes from the analytic CycleModel; run() reports the cycles of
// the last invocation so callers (the rt::ZynqBoard) can account time.
#pragma once

#include <memory>

#include "nodetr/fx/qmhsa.hpp"
#include "nodetr/hls/cycle_model.hpp"
#include "nodetr/nn/attention.hpp"

namespace nodetr::hls {

using nodetr::tensor::Tensor;

/// The learned tensors an MHSA IP needs, in float (pre-quantization).
using MhsaWeights = nodetr::nn::MhsaWeights;

/// The nn layer an IP with `point`'s geometry computes on weights shaped like
/// `weights`: ReLU attention, the relative encoding iff `weights` carries the
/// relative tables, the output LayerNorm iff it carries the LayerNorm's gain.
/// MhsaDesignPoint::from_config maps the other way.
[[nodiscard]] nodetr::nn::MhsaConfig module_config(const MhsaDesignPoint& point,
                                                   const MhsaWeights& weights);

class MhsaIpCore {
 public:
  /// Geometry of `point` must match the weight shapes. Builds only the
  /// datapath of `point.dtype`.
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
  /// Runs on the calling thread. Throws std::logic_error on a float32 core.
  [[nodiscard]] fx::FixedTensor run_fixed_tokens(const fx::FixedTensor& tokens) const;

 private:
  MhsaDesignPoint point_;
  nodetr::nn::MhsaConfig config_;  ///< module_config() of the IP's weights
  // Exactly one datapath. Float32: the software module on the weights after
  // the WeightWire round-trip. Fixed: the parameters quantized and packed
  // once at construction: the [Wq|Wk|Wv] panel, each head's relative-position
  // matrix R_h, and the LayerNorm gain/bias.
  std::unique_ptr<nodetr::nn::MultiHeadSelfAttention> float_;
  fx::QMhsa fixed_;
  CycleBreakdown last_cycles_;
  CycleModel cycle_model_;
};

}  // namespace nodetr::hls
