#include "nodetr/ode/ode_block.hpp"

#include <stdexcept>

#include "nodetr/obs/obs.hpp"

namespace nodetr::ode {

OdeBlock::OdeBlock(ModulePtr dynamics, index_t steps, SolverKind solver, float t0, float t1)
    : dynamics_(std::move(dynamics)), steps_(steps), kind_(solver), t0_(t0), t1_(t1),
      solver_(make_solver(solver)) {
  if (!dynamics_) throw std::invalid_argument("OdeBlock: null dynamics");
  if (steps_ <= 0) throw std::invalid_argument("OdeBlock: steps must be positive");
}

void OdeBlock::set_steps(index_t steps) {
  if (steps <= 0) throw std::invalid_argument("OdeBlock: steps must be positive");
  steps_ = steps;
}

void OdeBlock::set_solver(SolverKind kind) {
  kind_ = kind;
  solver_ = make_solver(kind);
}

Tensor OdeBlock::eval_dynamics(const Tensor& z, float t) {
  if (auto* ta = dynamic_cast<TimeAware*>(dynamics_.get())) ta->set_time(t);
  return dynamics_->forward(z);
}

Tensor OdeBlock::forward(const Tensor& x) {
  begin_forward();
  obs::ScopedSpan span("ode.block.forward");
  span.attr("solver", to_string(kind_));
  span.attr("steps", steps_);
  // Only a recording forward touches states_ and forward_was_euler_, so
  // inference forwards may run concurrently. A recording Euler forward keeps
  // the state at which each step evaluates the dynamics: the trajectory
  // backward() replays.
  const bool record = recording();
  if (record) {
    states_.clear();
    forward_was_euler_ = kind_ == SolverKind::kEuler;
    if (forward_was_euler_) states_.reserve(static_cast<std::size_t>(steps_));
  }
  const bool keep = record && forward_was_euler_;
  return solver_->integrate(x, t0_, t1_, steps_, [this, keep](const Tensor& z, float t) {
    if (keep) states_.push_back(z);
    return eval_dynamics(z, t);
  });
}

Tensor OdeBlock::backward(const Tensor& grad_out) {
  require_backward_state();
  obs::ScopedSpan span("ode.block.backward");
  span.attr("steps", steps_);
  if (!forward_was_euler_) {
    throw std::logic_error(
        "OdeBlock::backward: training requires the Euler solver (discretize-then-optimize); "
        "re-run forward with SolverKind::kEuler");
  }
  const float h = (t1_ - t0_) / static_cast<float>(steps_);
  Tensor g = grad_out;
  for (index_t j = steps_ - 1; j >= 0; --j) {
    const float t = t0_ + h * static_cast<float>(j);
    // Recompute the dynamics forward at the cached state to refresh its
    // internal caches (checkpointing), then pull the cotangent through.
    eval_dynamics(states_[static_cast<std::size_t>(j)], t);
    Tensor scaled = g;
    scaled *= h;
    g += dynamics_->backward(scaled);
  }
  return g;
}

std::string OdeBlock::name() const {
  return "OdeBlock(C=" + std::to_string(steps_) + "," + to_string(kind_) + ")";
}

}  // namespace nodetr::ode
