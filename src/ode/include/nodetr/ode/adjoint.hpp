// Adjoint-method training for OdeBlocks (Chen et al. [10], Sec. 2).
//
// Instead of caching the forward trajectory (discretize-then-optimize, as
// OdeBlock does), the adjoint method recovers gradients by integrating the
// augmented ODE backward in time:
//
//   da/dt = -a^T df/dz,        a(t1) = dL/dz(t1)
//   dL/dθ = -∫ a^T df/dθ dt
//
// Memory is O(1) in the number of solver steps — the property that lets
// Neural ODEs use arbitrarily fine integration during training. The price is
// a second (backward) integration pass plus re-evaluation of the dynamics.
//
// This implementation discretizes the backward integral with the same Euler
// grid as the forward pass, re-solving the state forward from the cached
// input to obtain z(t_j) at each step (so only the block input is stored).
// For the f(z) Jacobian-vector products it reuses the Module::backward
// machinery, so any dynamics module works unmodified.
#pragma once

#include "nodetr/ode/ode_block.hpp"

namespace nodetr::ode {

class AdjointOdeBlock final : public Module {
 public:
  AdjointOdeBlock(ModulePtr dynamics, index_t steps, float t0 = 0.0f, float t1 = 1.0f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Module*> children() override { return {dynamics_.get()}; }
  [[nodiscard]] index_t steps() const { return steps_; }

 private:
  void release_backward_state() override { input_ = Tensor(); }
  Tensor eval_dynamics(const Tensor& z, float t);
  /// The forward Euler recursion from `x`, solved up to step j.
  [[nodiscard]] Tensor solve(const Tensor& x, index_t j);

  ModulePtr dynamics_;
  index_t steps_;
  float t0_, t1_;
  Tensor input_;  ///< the ONLY cached tensor: O(1) trajectory memory
};

}  // namespace nodetr::ode
