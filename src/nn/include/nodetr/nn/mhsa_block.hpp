// MHSABlock (Fig. 3/4): the bottleneck attention sandwich used both inside
// BoTNet bottleneck blocks and as the ODE dynamics of the proposed model.
//
//   BN(C) -> ReLU -> 1x1 conv C->Dm -> BN(Dm) -> ReLU -> MHSA(Dm, HxW)
//         -> 1x1 conv Dm->C
//
// The MHSA itself applies the paper's modifications (relative positional
// encoding, ReLU attention, output LayerNorm) through its MhsaConfig. The
// block computes the *body* only — no residual — so it can serve directly as
// the derivative f(z) of an ODEBlock (the solver adds the skip), or be
// wrapped with a residual by model code.
#pragma once

#include "nodetr/nn/activations.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/norm.hpp"

namespace nodetr::nn {

struct MhsaBlockConfig {
  index_t channels = 256;       ///< C: feature-map channels in and out
  index_t bottleneck_dim = 64;  ///< Dm: MHSA width after the 1x1 reduction
  index_t heads = 4;
  index_t height = 6;
  index_t width = 6;
  AttentionKind attention = AttentionKind::kRelu;
  PosEncodingKind pos = PosEncodingKind::kRelative2d;
  bool layer_norm_out = true;
};

class MhsaBlock final : public Module {
 public:
  MhsaBlock(MhsaBlockConfig config, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Module*> children() override { return chain_; }

  [[nodiscard]] MultiHeadSelfAttention& mhsa() { return *mhsa_; }
  [[nodiscard]] const MhsaBlockConfig& config() const { return config_; }

 private:
  MhsaBlockConfig config_;
  std::unique_ptr<BatchNorm2d> bn_in_;
  std::unique_ptr<ReLU> relu_in_;
  std::unique_ptr<Conv2d> reduce_;
  std::unique_ptr<BatchNorm2d> bn_mid_;
  std::unique_ptr<ReLU> relu_mid_;
  std::unique_ptr<MultiHeadSelfAttention> mhsa_;
  std::unique_ptr<Conv2d> expand_;
  std::vector<Module*> chain_;  ///< the seven above, in order
};

}  // namespace nodetr::nn
