#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

std::vector<Param*> Module::parameters() {
  std::vector<Param*> out = local_parameters();
  for (Module* c : children()) {
    auto sub = c->parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<Tensor*> Module::buffers() {
  std::vector<Tensor*> out = local_buffers();
  for (Module* c : children()) {
    auto sub = c->buffers();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

index_t Module::num_parameters() {
  index_t n = 0;
  for (const Param* p : parameters()) n += p->numel();
  return n;
}

void Module::train(bool on) {
  training_ = on;
  for (Module* c : children()) c->train(on);
}

void Module::zero_grad() {
  for (Param* p : parameters()) p->grad.zero();
}

void Module::require_backward_state() const {
  if (!has_backward_state_) {
    throw NoBackwardState(name() +
                          "::backward: the last forward recorded no backward state (it ran "
                          "under an InferenceScope, or no forward ran)");
  }
}

InferenceScope::InferenceScope(Module& root) {
  try {
    enter(root);
  } catch (...) {
    restore();
    throw;
  }
}

InferenceScope::~InferenceScope() { restore(); }

void InferenceScope::enter(Module& m) {
  saved_.push_back({&m, m.training_, m.recording_});
  m.training_ = false;
  m.recording_ = false;
  m.has_backward_state_ = false;
  m.release_backward_state();
  for (Module* c : m.children()) enter(*c);
}

void InferenceScope::restore() {
  // Reverse order, so a module reached twice ends with its first saved flags.
  for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
    it->module->training_ = it->training;
    it->module->recording_ = it->recording;
  }
  saved_.clear();
}

}  // namespace nodetr::nn
