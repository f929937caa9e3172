// Sequential container chaining modules.
#pragma once

#include "nodetr/nn/module.hpp"

namespace nodetr::nn {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Append a module; returns a typed reference to it for later access.
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    modules_.push_back(std::move(m));
    return ref;
  }

  void push_back(ModulePtr m) { modules_.push_back(std::move(m)); }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Module*> children() override;
  [[nodiscard]] std::size_t size() const { return modules_.size(); }
  [[nodiscard]] Module& operator[](std::size_t i) { return *modules_[i]; }

 private:
  std::vector<ModulePtr> modules_;
};

}  // namespace nodetr::nn
