// ODENet (the dsODENet-style backbone [21], Fig. 2 left) and the paper's
// proposed model (Fig. 2 right / Fig. 3).
//
//   stem: 3x3/2 conv -> BN -> ReLU -> 3x3/2 maxpool        (image/4)
//   OdeBlock1 (stage_channels[0]): C Euler iterations of
//        BN -> ReLU -> DSC -> BN -> ReLU -> DSC
//   downsample1: residual 3x3/2 conv block, channels x2    (image/8)
//   OdeBlock2 (stage_channels[1])
//   downsample2                                            (image/16)
//   OdeBlock3 (stage_channels[2])  <-- replaced by an MHSABlock-dynamics
//                                      OdeBlock in the proposed model
//   GlobalAvgPool -> Linear head
//
// With the default 96x96 input and 64/128/256 channels, the final stage is a
// 256-channel 6x6 feature map, and the proposed model's MHSA runs in a
// 64-dimensional bottleneck — the paper's "(64, 6, 6)" design point.
#pragma once

#include "nodetr/nn/nn.hpp"
#include "nodetr/ode/ode_block.hpp"

namespace nodetr::models {

using namespace nodetr::nn;  // NOLINT: model builders compose many nn types
using nodetr::ode::OdeBlock;

enum class FinalStage {
  kConvOde,  ///< plain ODENet (Fig. 2 left)
  kMhsaOde,  ///< proposed model: MHSABlock dynamics (Fig. 2 right)
};

struct OdeNetConfig {
  index_t image_size = 96;
  index_t classes = 10;
  index_t stem_channels = 64;
  std::array<index_t, 3> stage_channels{64, 128, 256};
  index_t steps = 6;  ///< C: Euler iterations per ODEBlock
  FinalStage final_stage = FinalStage::kConvOde;
  // Proposed-model MHSA settings (used when final_stage == kMhsaOde).
  index_t mhsa_bottleneck = 64;  ///< Dm of the 1x1-reduced attention
  index_t mhsa_heads = 4;
  AttentionKind attention = AttentionKind::kRelu;       ///< Eq. 16
  PosEncodingKind pos = PosEncodingKind::kRelative2d;   ///< Eq. 15
  // The MHSA always ends in Eq. 17's LayerNorm (MhsaBlockConfig's default).
};

/// Holds the assembled network plus handles to the OdeBlocks so experiments
/// can retune solver/steps after construction.
class OdeNet final : public Module {
 public:
  OdeNet(OdeNetConfig config, Rng& rng);

  Tensor forward(const Tensor& x) override { return net_->forward(x); }
  Tensor backward(const Tensor& grad_out) override { return net_->backward(grad_out); }

  /// Feature vector entering the final FC layer (B, C_final) — the signal
  /// Figs. 9/10 compare between software and FPGA execution.
  [[nodiscard]] Tensor features(const Tensor& x);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Module*> children() override { return {net_.get()}; }

  [[nodiscard]] const OdeNetConfig& config() const { return config_; }
  [[nodiscard]] std::vector<OdeBlock*>& ode_blocks() { return ode_blocks_; }
  /// The MHSABlock dynamics of the final stage (proposed model only).
  [[nodiscard]] MhsaBlock* mhsa_block() { return mhsa_block_; }
  /// Spatial extent of the final stage's feature map.
  [[nodiscard]] index_t final_spatial() const { return final_spatial_; }

 private:
  OdeNetConfig config_;
  ModulePtr net_;
  std::vector<OdeBlock*> ode_blocks_;
  MhsaBlock* mhsa_block_ = nullptr;
  index_t final_spatial_ = 0;
};

/// The plain Neural-ODE backbone of Table IV ("Neural ODE").
[[nodiscard]] std::unique_ptr<OdeNet> odenet(index_t image_size, index_t classes, Rng& rng,
                                             index_t steps = 6);

/// The paper's proposed model ("Proposed model", Fig. 2 right).
[[nodiscard]] std::unique_ptr<OdeNet> proposed_model(index_t image_size, index_t classes,
                                                     Rng& rng, index_t steps = 6);

}  // namespace nodetr::models
