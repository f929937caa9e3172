// HW/SW co-design runtime (Fig. 5): run the proposed model with its MHSA
// offloaded to the simulated FPGA accelerator.
//
// Timing semantics for the Table IX experiment:
//   - PS time is the measured host wall-clock of everything executed in
//     software (stem, ODE blocks, convolutions, head), with the functional
//     simulation cost of the IP subtracted — the simulator's own compute
//     must not be billed as board time;
//   - PL time is the analytic accelerator time: DMA beats + IP cycles at
//     the 200 MHz PL clock.
#pragma once

#include <memory>

#include "nodetr/models/odenet.hpp"
#include "nodetr/rt/accelerator.hpp"

namespace nodetr::rt {

struct InferenceTiming {
  double ps_ms = 0.0;  ///< measured software milliseconds
  double pl_ms = 0.0;  ///< simulated accelerator milliseconds (DMA + IP)
  [[nodiscard]] double total_ms() const { return ps_ms + pl_ms; }
};

/// Mean / max / standard deviation across repeated runs (Table IX format).
struct TimingStats {
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double stddev_ms = 0.0;
};

[[nodiscard]] TimingStats summarize(const std::vector<double>& samples_ms);

/// Scoped offload: on construction, routes the proposed model's MHSA through
/// a freshly built accelerator (weights extracted from the trained module);
/// on destruction, restores pure-software execution.
class OffloadedModel {
 public:
  /// `dtype` selects the float or fixed IP; `scheme` the fixed formats.
  OffloadedModel(models::OdeNet& model, hls::DataType dtype,
                 fx::QuantizationScheme scheme = fx::scheme_32_24());
  ~OffloadedModel();

  OffloadedModel(const OffloadedModel&) = delete;
  OffloadedModel& operator=(const OffloadedModel&) = delete;

  /// Inference with PS/PL time accounting. Runs the model under an
  /// nn::InferenceScope: eval mode, so BatchNorm uses (and never updates) its
  /// running statistics, no backward state recorded, and a training-mode
  /// model restored afterwards.
  [[nodiscard]] Tensor forward(const Tensor& batch);

  [[nodiscard]] const InferenceTiming& last_timing() const { return timing_; }
  [[nodiscard]] MhsaAccelerator& accelerator() { return *accel_; }

 private:
  models::OdeNet& model_;
  DdrMemory ddr_;
  std::unique_ptr<MhsaAccelerator> accel_;
  InferenceTiming timing_;
  double override_wall_ms_ = 0.0;
};

/// Pure-software timed inference (the CPU row of Table IX), run under an
/// nn::InferenceScope.
[[nodiscard]] double timed_cpu_inference_ms(nodetr::nn::Module& model, const Tensor& batch);

}  // namespace nodetr::rt
