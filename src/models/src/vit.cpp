#include "nodetr/models/vit.hpp"

#include <stdexcept>

namespace nodetr::models {

ViTBlock::ViTBlock(index_t dim, index_t heads, index_t mlp_dim, index_t tokens, Rng& rng)
    : dim_(dim), mlp_dim_(mlp_dim) {
  ln1_ = std::make_unique<LayerNorm>(dim);
  attn_ = std::make_unique<MultiHeadSelfAttention>(
      MhsaConfig{.dim = dim,
                 .heads = heads,
                 .height = tokens,
                 .width = 1,
                 .attention = AttentionKind::kSoftmax,
                 .pos = PosEncodingKind::kNone,
                 .layer_norm_out = false},
      rng);
  ln2_ = std::make_unique<LayerNorm>(dim);
  fc1_ = std::make_unique<Linear>(dim, mlp_dim, /*bias=*/true, rng);
  gelu_ = std::make_unique<GELU>();
  fc2_ = std::make_unique<Linear>(mlp_dim, dim, /*bias=*/true, rng);
}

Tensor ViTBlock::forward(const Tensor& x) {
  seq_shape_ = x.shape();
  const index_t b = x.dim(0), t = x.dim(1);
  // Attention branch (pre-LN residual).
  Tensor h = ln1_->forward(x);
  h = attn_->forward(h);
  h += x;
  // MLP branch.
  Tensor m = ln2_->forward(h);
  Tensor m2 = m.reshape(Shape{b * t, dim_});
  m2 = fc1_->forward(m2);
  m2 = gelu_->forward(m2);
  m2 = fc2_->forward(m2);
  Tensor out = m2.reshape(Shape{b, t, dim_});
  out += h;
  return out;
}

Tensor ViTBlock::backward(const Tensor& grad_out) {
  const index_t b = seq_shape_.dim(0), t = seq_shape_.dim(1);
  // MLP branch: out = h + MLP(LN2(h)).
  Tensor g2 = grad_out.reshape(Shape{b * t, dim_});
  Tensor gm = fc2_->backward(g2);
  gm = gelu_->backward(gm);
  gm = fc1_->backward(gm);
  Tensor gh = ln2_->backward(gm.reshape(Shape{b, t, dim_}));
  gh += grad_out;  // residual path
  // Attention branch: h = x + Attn(LN1(x)).
  Tensor ga = attn_->backward(gh);
  Tensor gx = ln1_->backward(ga);
  gx += gh;  // residual path
  return gx;
}

std::vector<Module*> ViTBlock::children() {
  return {ln1_.get(), attn_.get(), ln2_.get(), fc1_.get(), gelu_.get(), fc2_.get()};
}

ViT::ViT(ViTConfig config, Rng& rng)
    : config_(config), tokens_(0), cls_token_("cls", {}), pos_embed_("pos", {}) {
  if (config_.image_size % config_.patch_size != 0) {
    throw std::invalid_argument("ViT: image_size must be divisible by patch_size");
  }
  const index_t grid = config_.image_size / config_.patch_size;
  tokens_ = grid * grid + 1;
  patch_embed_ = std::make_unique<Conv2d>(3, config_.dim, config_.patch_size, config_.patch_size,
                                          0, /*bias=*/true, rng);
  cls_token_ = Param("cls", rng.randn(Shape{config_.dim}, 0.0f, 0.02f));
  pos_embed_ = Param("pos", rng.randn(Shape{tokens_, config_.dim}, 0.0f, 0.02f));
  for (index_t i = 0; i < config_.depth; ++i) {
    blocks_.push_back(
        std::make_unique<ViTBlock>(config_.dim, config_.heads, config_.mlp_dim, tokens_, rng));
  }
  final_ln_ = std::make_unique<LayerNorm>(config_.dim);
  head_ = std::make_unique<Linear>(config_.dim, config_.classes, /*bias=*/true, rng);
}

Tensor ViT::forward(const Tensor& x) {
  batch_ = x.dim(0);
  const index_t d = config_.dim;
  // Patchify: (B, D, G, G) -> (B, G*G, D) tokens.
  Tensor p = patch_embed_->forward(x);
  const index_t g2 = p.dim(2) * p.dim(3);
  Tensor tok = p.reshape(Shape{batch_, d, g2}).permute({0, 2, 1});
  // Prepend class token, add position embedding.
  Tensor seq(Shape{batch_, tokens_, d});
  for (index_t b = 0; b < batch_; ++b) {
    float* dst = seq.data() + b * tokens_ * d;
    for (index_t c = 0; c < d; ++c) dst[c] = cls_token_.value[c] + pos_embed_.value[c];
    for (index_t t = 0; t < g2; ++t) {
      const float* src = tok.data() + (b * g2 + t) * d;
      float* row = dst + (t + 1) * d;
      const float* pe = pos_embed_.value.data() + (t + 1) * d;
      for (index_t c = 0; c < d; ++c) row[c] = src[c] + pe[c];
    }
  }
  for (auto& blk : blocks_) seq = blk->forward(seq);
  seq = final_ln_->forward(seq);
  // Class-token readout.
  Tensor cls(Shape{batch_, d});
  for (index_t b = 0; b < batch_; ++b) {
    const float* src = seq.data() + b * tokens_ * d;
    std::copy(src, src + d, cls.data() + b * d);
  }
  return head_->forward(cls);
}

Tensor ViT::backward(const Tensor& grad_out) {
  const index_t d = config_.dim;
  Tensor gcls = head_->backward(grad_out);
  Tensor gseq(Shape{batch_, tokens_, d});
  for (index_t b = 0; b < batch_; ++b) {
    const float* src = gcls.data() + b * d;
    std::copy(src, src + d, gseq.data() + b * tokens_ * d);
  }
  gseq = final_ln_->backward(gseq);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) gseq = (*it)->backward(gseq);
  // Position embedding and class token gradients.
  const index_t g2 = tokens_ - 1;
  Tensor gtok(Shape{batch_, g2, d});
  for (index_t b = 0; b < batch_; ++b) {
    const float* gb = gseq.data() + b * tokens_ * d;
    for (index_t c = 0; c < d; ++c) {
      cls_token_.grad[c] += gb[c];
      pos_embed_.grad[c] += gb[c];
    }
    for (index_t t = 0; t < g2; ++t) {
      const float* row = gb + (t + 1) * d;
      float* pg = pos_embed_.grad.data() + (t + 1) * d;
      float* tg = gtok.data() + (b * g2 + t) * d;
      for (index_t c = 0; c < d; ++c) {
        pg[c] += row[c];
        tg[c] = row[c];
      }
    }
  }
  // Un-patchify: (B, T, D) -> (B, D, G, G) and back through the conv.
  const index_t grid = config_.image_size / config_.patch_size;
  Tensor gp = gtok.permute({0, 2, 1}).reshape(Shape{batch_, d, grid, grid});
  return patch_embed_->backward(gp);
}

std::vector<Module*> ViT::children() {
  std::vector<Module*> c{patch_embed_.get()};
  for (auto& b : blocks_) c.push_back(b.get());
  c.push_back(final_ln_.get());
  c.push_back(head_.get());
  return c;
}

std::vector<Param*> ViT::local_parameters() { return {&cls_token_, &pos_embed_}; }

std::unique_ptr<ViT> vit_base(index_t image_size, index_t classes, Rng& rng) {
  ViTConfig cfg;
  cfg.image_size = image_size;
  cfg.classes = classes;
  return std::make_unique<ViT>(cfg, rng);
}

}  // namespace nodetr::models
