// Full-model-on-FPGA projection (the paper's future work, Sec. VII).
//
// Extends the MHSA cycle model to the remaining layer types of the proposed
// network (dense conv, depthwise-separable conv, BN/ReLU, pooling, FC) using
// the same calibrated per-MAC pipeline costs, and prices every op of the
// proposed model's LayerPlan to estimate the latency of executing the ENTIRE
// model on the PL — versus the paper's implemented hybrid (MHSA on PL, rest
// on PS).
#pragma once

#include <string>
#include <vector>

#include "nodetr/hls/cycle_model.hpp"

namespace nodetr::hls {

/// One layer's latency contribution.
struct LayerCost {
  std::string name;
  std::int64_t macs = 0;
  std::int64_t cycles = 0;
  [[nodiscard]] double ms() const { return cycles * CycleModel::kClockNs * 1e-6; }
};

/// Cycle estimates for non-attention layers at a given unroll factor.
/// MACs are counted exactly from the geometry; the per-MAC pipeline cost is
/// the projection engine's (the same MAC array is time-shared).
class ConvCycleModel {
 public:
  explicit ConvCycleModel(index_t unroll = 128) : unroll_(unroll) {}

  [[nodiscard]] LayerCost conv2d(const std::string& name, index_t cin, index_t cout,
                                 index_t kernel, index_t out_h, index_t out_w) const;
  [[nodiscard]] LayerCost depthwise_separable(const std::string& name, index_t cin, index_t cout,
                                              index_t kernel, index_t out_h,
                                              index_t out_w) const;
  /// Elementwise layers (BN, ReLU, pooling, residual add, Euler update): one
  /// op per streamed element, fully pipelined.
  [[nodiscard]] LayerCost elementwise(const std::string& name, index_t elems) const;
  [[nodiscard]] LayerCost linear(const std::string& name, index_t in, index_t out) const;

 private:
  [[nodiscard]] std::int64_t mac_cycles(std::int64_t macs) const;
  index_t unroll_;
};

/// Latency plan for the proposed model (models::proposed_model): one row per
/// op of its LayerPlan, each OdeBlock's dynamics once per Euler step. Rows are
/// named "<stage> <op> <module path>[ (step c)]", the stage being stem,
/// ode1/ode2 (conv OdeBlocks), downsample, mhsa (the MHSABlock OdeBlock) or
/// head. The MHSA op itself is priced by the attention cycle model instead.
struct ProposedModelPlan {
  std::vector<LayerCost> layers;   ///< per-op costs, execution order
  CycleBreakdown mhsa;             ///< one MHSA invocation (per solver step)
  index_t solver_steps = 0;        ///< MHSA invocations: one per solver step

  [[nodiscard]] std::int64_t total_cycles() const;
  [[nodiscard]] double total_ms() const { return total_cycles() * CycleModel::kClockNs * 1e-6; }
  /// Cycles spent in MHSA across all solver steps.
  [[nodiscard]] std::int64_t mhsa_cycles() const { return mhsa.total() * solver_steps; }
};

/// Lower models::proposed_model(image_size, 10 classes, solver_steps) and
/// price it at the given unroll (the paper configuration by default).
[[nodiscard]] ProposedModelPlan plan_proposed_model(index_t image_size = 96,
                                                    index_t solver_steps = 6,
                                                    index_t unroll = 128);

}  // namespace nodetr::hls
