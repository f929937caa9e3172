// ViT (Vision Transformer [2]) counterpart: the pure-attention baseline of
// Tables IV/V and Fig. 8.
//
// Faithful to the paper's description of MHSA (Eq. 9): Q/K/V projections
// without biases and NO output projection; encoder blocks are pre-LN with a
// GELU MLP; a learnable class token and learnable absolute position
// embeddings; classification head on the class token.
#pragma once

#include "nodetr/nn/nn.hpp"

namespace nodetr::models {

using namespace nodetr::nn;  // NOLINT: model builders compose many nn types

struct ViTConfig {
  index_t image_size = 96;
  index_t patch_size = 16;
  index_t classes = 10;
  index_t dim = 768;     ///< ViT-Base embedding width
  index_t depth = 12;    ///< encoder blocks
  index_t heads = 12;
  index_t mlp_dim = 3072;
};

/// One pre-LN encoder block: x += MHSA(LN(x)); x += MLP(LN(x)). The MHSA is
/// the proposed model's, configured as the paper's Eq. 9: softmax, no
/// positional encoding (the ViT adds its own embedding), no output LayerNorm,
/// over a (B, tokens, D) sequence.
class ViTBlock final : public Module {
 public:
  ViTBlock(index_t dim, index_t heads, index_t mlp_dim, index_t tokens, Rng& rng);

  Tensor forward(const Tensor& x) override;   ///< (B, T, D)
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ViTBlock"; }
  [[nodiscard]] std::vector<Module*> children() override;

 private:
  index_t dim_, mlp_dim_;
  std::unique_ptr<LayerNorm> ln1_, ln2_;
  std::unique_ptr<MultiHeadSelfAttention> attn_;
  std::unique_ptr<Linear> fc1_, fc2_;
  std::unique_ptr<GELU> gelu_;
  Shape seq_shape_{std::initializer_list<index_t>{0}};
};

class ViT final : public Module {
 public:
  ViT(ViTConfig config, Rng& rng);

  /// x: (B, 3, S, S) -> logits (B, classes).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "ViT"; }
  [[nodiscard]] std::vector<Module*> children() override;
  [[nodiscard]] std::vector<Param*> local_parameters() override;

  [[nodiscard]] const ViTConfig& config() const { return config_; }
  [[nodiscard]] index_t tokens() const { return tokens_; }  ///< incl. class token

 private:
  ViTConfig config_;
  index_t tokens_;  ///< patches + 1
  std::unique_ptr<Conv2d> patch_embed_;
  Param cls_token_;  ///< (D)
  Param pos_embed_;  ///< (T, D)
  std::vector<std::unique_ptr<ViTBlock>> blocks_;
  std::unique_ptr<LayerNorm> final_ln_;
  std::unique_ptr<Linear> head_;
  index_t batch_ = 0;
};

/// ViT-Base as configured in the paper.
[[nodiscard]] std::unique_ptr<ViT> vit_base(index_t image_size, index_t classes, Rng& rng);

}  // namespace nodetr::models
