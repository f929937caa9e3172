// LayerPlan: one lowering of an nn::Module tree into the ordered op list
// that every whole-model consumer reads — the bit-accurate fixed executor
// (qexec.hpp) and the full-model FPGA cost plan (model_plan.hpp).
//
// Lowering follows the input shape through the tree once. Containers
// (Sequential, MhsaBlock, one-child wrappers without parameters such as
// models::OdeNet) flatten into their children and Dropout emits nothing.
// Every other layer becomes one op: its kind, module path (child indices
// from the root, e.g. "0.4.0.2"), shapes, geometry, and parameters quantized
// once into the scheme's parameter format (BatchNorm folded to a
// per-channel scale and shift first). A Residual op is followed by its body
// span, then its skip span; an OdeBlock op by its dynamics span, run `steps`
// times as z <- z + h f(z). Layers without a fixed-point implementation
// (non-Euler OdeBlocks, softmax attention, a LayerNorm outside the MHSA IP,
// sequence layers) throw std::invalid_argument while lowering.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nodetr/hls/mhsa_ip.hpp"
#include "nodetr/nn/module.hpp"
#include "nodetr/tensor/conv.hpp"

namespace nodetr::hls {

using nodetr::tensor::Conv2dGeom;
using nodetr::tensor::Shape;

enum class OpKind {
  kConv,
  kDsc,            ///< depthwise conv, then 1x1 pointwise conv
  kScaleShift,     ///< BatchNorm2d folded to per-channel scale and shift
  kRelu,
  kMaxPool,
  kGlobalAvgPool,
  kLinear,
  kMhsa,           ///< ReLU-attention MHSA on the IP core's fixed datapath
  kResidual,       ///< body span + skip span (identity when empty), then ReLU
  kOde,            ///< Euler steps over the dynamics span
};

/// Short lower-case name ("conv", "bn", "euler", ...), used in plan rows.
[[nodiscard]] const char* to_string(OpKind kind);

struct PlanOp {
  OpKind kind = OpKind::kRelu;
  std::string path;
  Shape in{std::initializer_list<index_t>{0}};
  Shape out{std::initializer_list<index_t>{0}};
  Conv2dGeom geom;     ///< kConv; kDsc's depthwise stage; kMaxPool's window
  Conv2dGeom pw_geom;  ///< kDsc's pointwise stage
  /// Conv/linear weight and bias (the bias may be empty), kDsc's depthwise
  /// weight, a folded BN's scale and shift.
  fx::FixedTensor weight, bias;
  fx::FixedTensor pw_weight;  ///< kDsc
  std::shared_ptr<const MhsaIpCore> mhsa;  ///< kMhsa
  /// Ops after this one that belong to it: kResidual's body then skip
  /// spans, kOde's dynamics span (as `body`).
  std::size_t body = 0, skip = 0;
  bool relu = false;  ///< kResidual: ReLU after the sum
  index_t steps = 0;  ///< kOde
  float h = 0.0f;     ///< kOde step size (t1 - t0) / steps

  /// Index one past this op's spans, given its own index.
  [[nodiscard]] std::size_t end(std::size_t self) const { return self + 1 + body + skip; }
};

struct LayerPlan {
  fx::QuantizationScheme scheme;
  std::vector<PlanOp> ops;  ///< execution order; spans nest

  /// Lower `root` for inputs of shape `input` (batch first).
  [[nodiscard]] static LayerPlan lower(nodetr::nn::Module& root, const Shape& input,
                                       const fx::QuantizationScheme& scheme);
};

}  // namespace nodetr::hls
