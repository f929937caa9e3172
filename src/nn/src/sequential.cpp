#include "nodetr/nn/sequential.hpp"

#include <stdexcept>

namespace nodetr::nn {

Tensor Sequential::forward(const Tensor& x) {
  begin_forward();
  Tensor h = x;
  for (auto& m : modules_) {
    h = m->forward(h);
    if (act_hook_) h = act_hook_(h);
  }
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  require_backward_state();
  if (act_hook_) {
    throw std::logic_error(
        "Sequential::backward: unsupported while an activation hook is installed");
  }
  Tensor g = grad_out;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::string Sequential::name() const {
  return "Sequential[" + std::to_string(modules_.size()) + "]";
}

std::vector<Module*> Sequential::children() {
  std::vector<Module*> out;
  out.reserve(modules_.size());
  for (auto& m : modules_) out.push_back(m.get());
  return out;
}

}  // namespace nodetr::nn
