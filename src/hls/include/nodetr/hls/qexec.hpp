// QuantizedExecutor: run an ENTIRE trained model in fixed point.
//
// This is the functional core of the paper's future work ("implementing the
// proposed model on the FPGA entirely"): it lowers the module tree into a
// LayerPlan (layer_plan.hpp) and executes every op with the bit-accurate fx
// kernels — feature maps in the scheme's feature format, parameters
// quantized once into the parameter format, BatchNorms folded to
// per-channel scale/shift, MHSA on the same datapath as the MhsaIpCore, and
// the Euler recursion of OdeBlocks computed in fixed point (z <- z + h*f(z)
// with the step size h a quantized hardware constant). Every intermediate is
// a fixed-point value: outputs match what a full-model FPGA datapath would
// produce bit for bit. The model itself is only read, never run or changed.
#pragma once

#include "nodetr/fx/fixed_tensor.hpp"
#include "nodetr/nn/module.hpp"

namespace nodetr::hls {

using nodetr::tensor::Tensor;

class QuantizedExecutor {
 public:
  explicit QuantizedExecutor(fx::QuantizationScheme scheme) : scheme_(scheme) {}

  /// Execute `model` (inference only) on a float input; the input is
  /// quantized into the feature format at the boundary and the output
  /// dequantized back. Throws std::invalid_argument for layers without a
  /// fixed-point implementation (Dropout, the identity at inference, passes).
  [[nodiscard]] Tensor run(nodetr::nn::Module& model, const Tensor& input);

  /// Fixed-in / fixed-out variant for composing executors.
  [[nodiscard]] fx::FixedTensor run_fixed(nodetr::nn::Module& model, const fx::FixedTensor& x);

  [[nodiscard]] const fx::QuantizationScheme& scheme() const { return scheme_; }

 private:
  fx::QuantizationScheme scheme_;
};

}  // namespace nodetr::hls
