// OdeBlock: the parameter-sharing building block of ODENets (Sec. III-B).
//
// An OdeBlock integrates z' = f(z, t) over [t0, t1] where f is an nn::Module
// (the "dynamics", e.g. BN-ReLU-DSC-BN-ReLU-DSC, or the MHSABlock of the
// proposed model). The same dynamics parameters are reused for every solver
// step — C ResBlocks collapse into one block evaluated C times, cutting
// parameters to 1/C.
//
// Training uses discretize-then-optimize through the Euler recursion
// (Eq. 14): forward caches the C intermediate states; backward re-runs the
// dynamics forward at each cached state (gradient checkpointing) and applies
//   g_j = g_{j+1} + f.backward(h * g_{j+1}).
// Higher-order solvers are supported for inference; calling backward after a
// non-Euler forward throws.
#pragma once

#include "nodetr/nn/module.hpp"
#include "nodetr/ode/solver.hpp"

namespace nodetr::ode {

using nodetr::nn::Module;
using nodetr::nn::ModulePtr;

/// Dynamics modules that depend explicitly on t implement this; the OdeBlock
/// calls set_time before every evaluation.
class TimeAware {
 public:
  virtual ~TimeAware() = default;
  virtual void set_time(float t) = 0;
};

class OdeBlock final : public Module {
 public:
  /// Takes ownership of the dynamics. `steps` is C, the iteration count.
  OdeBlock(ModulePtr dynamics, index_t steps, SolverKind solver = SolverKind::kEuler,
           float t0 = 0.0f, float t1 = 1.0f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Module*> children() override { return {dynamics_.get()}; }

  [[nodiscard]] index_t steps() const { return steps_; }
  [[nodiscard]] SolverKind solver_kind() const { return kind_; }
  [[nodiscard]] Module& dynamics() { return *dynamics_; }
  [[nodiscard]] float t0() const { return t0_; }
  [[nodiscard]] float t1() const { return t1_; }

  /// Change the iteration count (inference-time accuracy/latency knob).
  void set_steps(index_t steps);
  void set_solver(SolverKind kind);

 private:
  void release_backward_state() override { states_ = {}; }
  Tensor eval_dynamics(const Tensor& z, float t);

  ModulePtr dynamics_;
  index_t steps_;
  SolverKind kind_;
  float t0_, t1_;
  std::unique_ptr<OdeSolver> solver_;
  std::vector<Tensor> states_;  ///< Euler trajectory cache for backward
  bool forward_was_euler_ = false;
};

}  // namespace nodetr::ode
