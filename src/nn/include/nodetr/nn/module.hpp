// Module: the building block of every network in this library.
//
// Training uses classic module-local reverse mode (no tape): forward() caches
// whatever backward() needs, and backward() must be invoked with the cotangent
// of the *most recent* forward() output, returning the cotangent of its input
// while accumulating parameter gradients. Composite modules own their children
// through unique_ptr and chain backward in reverse order.
//
// Inference runs the same forward() under an InferenceScope, which records
// nothing for backward(); a backward() after such a forward throws
// NoBackwardState. An inference forward writes no module state, so several
// threads may run inference forwards on one module at once.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nodetr/tensor/rng.hpp"
#include "nodetr/tensor/tensor.hpp"

namespace nodetr::nn {

using nodetr::tensor::index_t;
using nodetr::tensor::Rng;
using nodetr::tensor::Shape;
using nodetr::tensor::Tensor;

/// Thrown by backward() when the most recent forward() recorded no backward
/// state: it ran under an InferenceScope, or no forward() ran yet.
class NoBackwardState : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A learnable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, Tensor v) : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  [[nodiscard]] index_t numel() const { return value.numel(); }
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Compute the output for `x`, caching activations needed by backward().
  virtual Tensor forward(const Tensor& x) = 0;

  /// Propagate the output cotangent back through the most recent forward(),
  /// accumulating parameter gradients; returns the input cotangent.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Short human-readable layer name, e.g. "Conv2d(64->128,k3,s2)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Direct sub-modules (non-owning). Used for recursive traversal.
  [[nodiscard]] virtual std::vector<Module*> children() { return {}; }

  /// Parameters owned directly by this module (not by children).
  [[nodiscard]] virtual std::vector<Param*> local_parameters() { return {}; }

  /// Non-learnable persistent state owned directly by this module (e.g.
  /// BatchNorm running statistics). Saved in checkpoints, never optimized.
  [[nodiscard]] virtual std::vector<Tensor*> local_buffers() { return {}; }

  /// All parameters in the subtree, depth first.
  [[nodiscard]] std::vector<Param*> parameters();

  /// All buffers in the subtree, depth first.
  [[nodiscard]] std::vector<Tensor*> buffers();

  /// Total learnable parameter count in the subtree.
  [[nodiscard]] index_t num_parameters();

  /// Set training mode (affects BatchNorm, Dropout) for the whole subtree.
  void train(bool on = true);
  [[nodiscard]] bool training() const { return training_; }

  /// Zero every gradient accumulator in the subtree.
  void zero_grad();

  /// False while an InferenceScope covers this module: forward() then keeps
  /// nothing that backward() would need.
  [[nodiscard]] bool recording() const { return recording_; }

 protected:
  /// Every forward() calls this first: backward() is valid afterwards only
  /// when this forward records. A forward that does not record writes
  /// nothing here: InferenceScope already cleared the flag on entry, so
  /// concurrent inference forwards on one module do not race on it.
  void begin_forward() {
    if (recording_) has_backward_state_ = true;
  }

  /// Every backward() calls this first. Throws NoBackwardState, naming this
  /// module, when the most recent forward() recorded nothing.
  void require_backward_state() const;

  /// Free whatever the most recent forward() kept for backward().
  /// InferenceScope calls it on entry, so no stale state outlives a training
  /// forward.
  virtual void release_backward_state() {}

  bool training_ = true;

 private:
  friend class InferenceScope;

  bool recording_ = true;
  bool has_backward_state_ = false;
};

/// Runs a module subtree as inference for one scope: eval mode (BatchNorm
/// uses its running statistics, Dropout is the identity) and no forward() in
/// the subtree records backward state. Entering frees the state a previous
/// training forward left behind. Every module's training and recording flags
/// are set by the same tree walk as train(), and restored on every exit path.
class InferenceScope {
 public:
  explicit InferenceScope(Module& root);
  ~InferenceScope();

  InferenceScope(const InferenceScope&) = delete;
  InferenceScope& operator=(const InferenceScope&) = delete;

 private:
  struct Saved {
    Module* module;
    bool training;
    bool recording;
  };
  void enter(Module& m);
  void restore();

  std::vector<Saved> saved_;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace nodetr::nn
