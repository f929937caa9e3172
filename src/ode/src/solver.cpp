#include "nodetr/ode/solver.hpp"

#include <cmath>
#include <stdexcept>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"

namespace nodetr::ode {

namespace {
float step_size(float t0, float t1, index_t steps) {
  if (steps <= 0) throw std::invalid_argument("OdeSolver: steps must be positive");
  return (t1 - t0) / static_cast<float>(steps);
}
}  // namespace

Tensor EulerSolver::integrate(const Tensor& z0, float t0, float t1, index_t steps,
                              const OdeRhs& f) const {
  obs::ScopedSpan span("ode.solve");
  span.attr("solver", "Euler");
  span.attr("steps", steps);
  const float h = step_size(t0, t1, steps);
  Tensor z = z0;
  for (index_t j = 0; j < steps; ++j) {
    obs::ScopedSpan step_span("ode.euler_step");
    step_span.attr("step", j);
    const float t = t0 + h * static_cast<float>(j);
    z.add_scaled(f(z, t), h);
  }
  return z;
}

Tensor MidpointSolver::integrate(const Tensor& z0, float t0, float t1, index_t steps,
                                 const OdeRhs& f) const {
  obs::ScopedSpan span("ode.solve");
  span.attr("solver", "Midpoint");
  span.attr("steps", steps);
  const float h = step_size(t0, t1, steps);
  Tensor z = z0;
  Tensor mid;  // hoisted: copy-assign reuses its storage across steps
  for (index_t j = 0; j < steps; ++j) {
    const float t = t0 + h * static_cast<float>(j);
    mid = z;
    mid.add_scaled(f(z, t), 0.5f * h);
    z.add_scaled(f(mid, t + 0.5f * h), h);
  }
  return z;
}

Tensor Rk4Solver::integrate(const Tensor& z0, float t0, float t1, index_t steps,
                            const OdeRhs& f) const {
  obs::ScopedSpan span("ode.solve");
  span.attr("solver", "RK4");
  span.attr("steps", steps);
  const float h = step_size(t0, t1, steps);
  Tensor z = z0;
  // Stage-input tensors hoisted out of the loop: copy-assign into an
  // already-sized std::vector reuses its storage, so after the first step the
  // solver stops hitting the allocator for stage state.
  Tensor z2, z3, z4;
  for (index_t j = 0; j < steps; ++j) {
    const float t = t0 + h * static_cast<float>(j);
    Tensor k1 = f(z, t);
    z2 = z;
    z2.add_scaled(k1, 0.5f * h);
    Tensor k2 = f(z2, t + 0.5f * h);
    z3 = z;
    z3.add_scaled(k2, 0.5f * h);
    Tensor k3 = f(z3, t + 0.5f * h);
    z4 = z;
    z4.add_scaled(k3, h);
    Tensor k4 = f(z4, t + h);
    z.add_scaled(k1, h / 6.0f);
    z.add_scaled(k2, h / 3.0f);
    z.add_scaled(k3, h / 3.0f);
    z.add_scaled(k4, h / 6.0f);
  }
  return z;
}

Tensor DormandPrince45::integrate(const Tensor& z0, float t0, float t1, index_t /*steps*/,
                                  const OdeRhs& f) const {
  obs::ScopedSpan span("ode.solve");
  span.attr("solver", "DormandPrince45");
  // Dormand-Prince RK5(4)7M coefficients.
  static constexpr double c[7] = {0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0};
  static constexpr double a[7][6] = {
      {},
      {1.0 / 5},
      {3.0 / 40, 9.0 / 40},
      {44.0 / 45, -56.0 / 15, 32.0 / 9},
      {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
      {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
      {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84}};
  // 5th-order solution weights (same as a[6]); 4th-order embedded weights.
  static constexpr double b5[7] = {35.0 / 384,     0.0,  500.0 / 1113, 125.0 / 192,
                                   -2187.0 / 6784, 11.0 / 84, 0.0};
  static constexpr double b4[7] = {5179.0 / 57600,  0.0,         7571.0 / 16695, 393.0 / 640,
                                   -92097.0 / 339200, 187.0 / 2100, 1.0 / 40};

  Stats stats;
  Tensor z = z0;
  float t = t0;
  float h = (t1 - t0) * 0.1f;
  const float h_min = (t1 - t0) * 1e-6f;
  Tensor k[7];
  while (t < t1) {
    if (t + h > t1) h = t1 - t;
    for (int i = 0; i < 7; ++i) {
      Tensor zi = z;
      for (int j = 0; j < i; ++j) {
        if (a[i][j] != 0.0) zi.add_scaled(k[j], h * static_cast<float>(a[i][j]));
      }
      k[i] = f(zi, t + h * static_cast<float>(c[i]));
      ++stats.rhs_evals;
    }
    Tensor z5 = z, z4 = z;
    for (int i = 0; i < 7; ++i) {
      if (b5[i] != 0.0) z5.add_scaled(k[i], h * static_cast<float>(b5[i]));
      if (b4[i] != 0.0) z4.add_scaled(k[i], h * static_cast<float>(b4[i]));
    }
    // Error norm relative to tolerance.
    double err = 0.0;
    for (index_t i = 0; i < z.numel(); ++i) {
      const double sc = atol_ + rtol_ * std::max(std::fabs(z5[i]), std::fabs(z[i]));
      const double e = (z5[i] - z4[i]) / sc;
      err += e * e;
    }
    err = std::sqrt(err / static_cast<double>(std::max<index_t>(z.numel(), 1)));
    if (err <= 1.0 || h <= h_min) {
      t += h;
      z = std::move(z5);
      ++stats.accepted;
    } else {
      ++stats.rejected;
    }
    const double factor = 0.9 * std::pow(std::max(err, 1e-10), -0.2);
    h *= static_cast<float>(std::clamp(factor, 0.2, 5.0));
    h = std::max(h, h_min);
  }
  span.attr("accepted", stats.accepted);
  span.attr("rejected", stats.rejected);
  span.attr("rhs_evals", stats.rhs_evals);
  // Inside a task of the global pool this may run beside other integrations
  // on the same solver (predict_logits runs one image per task), so the
  // diagnostics stay as they were.
  if (!nodetr::tensor::ThreadPool::global().in_task()) stats_ = stats;
  return z;
}

std::unique_ptr<OdeSolver> make_solver(SolverKind kind) {
  switch (kind) {
    case SolverKind::kEuler: return std::make_unique<EulerSolver>();
    case SolverKind::kMidpoint: return std::make_unique<MidpointSolver>();
    case SolverKind::kRk4: return std::make_unique<Rk4Solver>();
    case SolverKind::kDopri45: return std::make_unique<DormandPrince45>();
  }
  throw std::invalid_argument("make_solver: unknown kind");
}

std::string to_string(SolverKind kind) { return make_solver(kind)->name(); }

}  // namespace nodetr::ode
