// Sequential container chaining modules.
#pragma once

#include <span>

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

/// Runs `x` through `modules` in order. Outside training and recording a
/// BatchNorm2d and a following ReLU run as one pass, or as the input
/// prologue of a DepthwiseSeparableConv after them; the bits equal the
/// modules' own forwards. Every container that chains modules runs this.
[[nodiscard]] Tensor forward_chain(std::span<Module* const> modules, const Tensor& x);

/// The chain's backward: each module's backward, last module first.
[[nodiscard]] Tensor backward_chain(std::span<Module* const> modules, const Tensor& grad_out);

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Append a module; returns a typed reference to it for later access.
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    push_back(std::move(m));
    return ref;
  }

  void push_back(ModulePtr m) {
    chain_.push_back(m.get());
    modules_.push_back(std::move(m));
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Module*> children() override { return chain_; }
  [[nodiscard]] std::size_t size() const { return chain_.size(); }
  [[nodiscard]] Module& operator[](std::size_t i) { return *chain_[i]; }

 private:
  std::vector<ModulePtr> modules_;  ///< owns the modules of chain_
  std::vector<Module*> chain_;
};

}  // namespace nodetr::nn
