#include "nodetr/ode/adjoint.hpp"

#include <stdexcept>

namespace nodetr::ode {

AdjointOdeBlock::AdjointOdeBlock(ModulePtr dynamics, index_t steps, float t0, float t1)
    : dynamics_(std::move(dynamics)), steps_(steps), t0_(t0), t1_(t1) {
  if (!dynamics_) throw std::invalid_argument("AdjointOdeBlock: null dynamics");
  if (steps_ <= 0) throw std::invalid_argument("AdjointOdeBlock: steps must be positive");
}

Tensor AdjointOdeBlock::eval_dynamics(const Tensor& z, float t) {
  if (auto* ta = dynamic_cast<TimeAware*>(dynamics_.get())) ta->set_time(t);
  return dynamics_->forward(z);
}

Tensor AdjointOdeBlock::solve(const Tensor& x, index_t j) {
  const float h = (t1_ - t0_) / static_cast<float>(steps_);
  Tensor z = x;
  for (index_t i = 0; i < j; ++i) {
    z.add_scaled(eval_dynamics(z, t0_ + h * static_cast<float>(i)), h);
  }
  return z;
}

Tensor AdjointOdeBlock::forward(const Tensor& x) {
  begin_forward();
  if (recording()) input_ = x;  // O(1) memory: only the entry state is retained
  return solve(x, steps_);
}

Tensor AdjointOdeBlock::backward(const Tensor& grad_out) {
  require_backward_state();
  const float h = (t1_ - t0_) / static_cast<float>(steps_);
  // Backward sweep of the adjoint recursion on the same Euler grid:
  //   a_j = a_{j+1} + h * (df/dz)^T|_{z_j} a_{j+1}
  // with parameter gradients accumulated as h * (df/dθ)^T a_{j+1} — exactly
  // the discrete adjoint of the forward recursion, so for Euler it matches
  // discretize-then-optimize gradients while storing no trajectory.
  Tensor a = grad_out;
  for (index_t j = steps_ - 1; j >= 0; --j) {
    const float t = t0_ + h * static_cast<float>(j);
    // Recover z(t_j) by re-solving forward from the cached input; the final
    // eval also primes the dynamics' internal caches for backward().
    Tensor zj = solve(input_, j);
    eval_dynamics(zj, t);
    Tensor scaled = a;
    scaled *= h;
    a += dynamics_->backward(scaled);
  }
  return a;
}

std::string AdjointOdeBlock::name() const {
  return "AdjointOdeBlock(C=" + std::to_string(steps_) + ")";
}

}  // namespace nodetr::ode
