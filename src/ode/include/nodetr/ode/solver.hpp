// Numerical ODE solvers (Sec. III-B, Eq. 13): fixed-step Euler, Midpoint,
// classic RK4, and adaptive Dormand-Prince 4(5).
//
// Solvers are stateless and integrate an arbitrary right-hand side
// f(z, t) -> dz/dt over [t0, t1]; states are Tensors of any shape.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "nodetr/tensor/tensor.hpp"

namespace nodetr::ode {

using nodetr::tensor::index_t;
using nodetr::tensor::Tensor;

using OdeRhs = std::function<Tensor(const Tensor&, float)>;

class OdeSolver {
 public:
  virtual ~OdeSolver() = default;

  /// Integrate z' = f(z, t) from (z0, t0) to t1 with `steps` fixed steps.
  [[nodiscard]] virtual Tensor integrate(const Tensor& z0, float t0, float t1, index_t steps,
                                         const OdeRhs& f) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// RHS evaluations per step (1 for Euler, 2 for midpoint, 4 for RK4) —
  /// the compute-vs-accuracy knob the ablation benches sweep.
  [[nodiscard]] virtual index_t rhs_evals_per_step() const = 0;
};

/// Forward Euler (Eq. 14): z_{j+1} = z_j + h f(z_j, t_j). One ResBlock
/// forward equals one Euler step — the observation Neural ODE builds on.
class EulerSolver final : public OdeSolver {
 public:
  Tensor integrate(const Tensor& z0, float t0, float t1, index_t steps,
                   const OdeRhs& f) const override;
  [[nodiscard]] std::string name() const override { return "Euler"; }
  [[nodiscard]] index_t rhs_evals_per_step() const override { return 1; }
};

/// Explicit midpoint (RK2).
class MidpointSolver final : public OdeSolver {
 public:
  Tensor integrate(const Tensor& z0, float t0, float t1, index_t steps,
                   const OdeRhs& f) const override;
  [[nodiscard]] std::string name() const override { return "Midpoint"; }
  [[nodiscard]] index_t rhs_evals_per_step() const override { return 2; }
};

/// Classic fourth-order Runge-Kutta.
class Rk4Solver final : public OdeSolver {
 public:
  Tensor integrate(const Tensor& z0, float t0, float t1, index_t steps,
                   const OdeRhs& f) const override;
  [[nodiscard]] std::string name() const override { return "RK4"; }
  [[nodiscard]] index_t rhs_evals_per_step() const override { return 4; }
};

/// Adaptive Dormand-Prince 4(5) with PI step-size control. `integrate`
/// ignores `steps` and uses the tolerances instead; `last_stats` reports the
/// work done by the last call made outside a task of the global pool.
class DormandPrince45 final : public OdeSolver {
 public:
  struct Stats {
    index_t accepted = 0;
    index_t rejected = 0;
    index_t rhs_evals = 0;
  };

  explicit DormandPrince45(float rtol = 1e-5f, float atol = 1e-7f)
      : rtol_(rtol), atol_(atol) {}

  Tensor integrate(const Tensor& z0, float t0, float t1, index_t steps,
                   const OdeRhs& f) const override;
  [[nodiscard]] std::string name() const override { return "DormandPrince45"; }
  [[nodiscard]] index_t rhs_evals_per_step() const override { return 6; }
  [[nodiscard]] const Stats& last_stats() const { return stats_; }

 private:
  float rtol_, atol_;
  mutable Stats stats_;
};

enum class SolverKind { kEuler, kMidpoint, kRk4, kDopri45 };

[[nodiscard]] std::unique_ptr<OdeSolver> make_solver(SolverKind kind);
[[nodiscard]] std::string to_string(SolverKind kind);

}  // namespace nodetr::ode
