// Multi-Head Self-Attention over a convolutional feature map (Sec. III-A,
// V-A). Supports both the original softmax attention (Eq. 6) and the paper's
// hardware-friendly ReLU attention (Eq. 16), and three positional encodings:
// none, absolute sinusoidal (Eq. 8), and the learnable 2-D relative encoding
// of BoTNet (Eq. 15) with per-head vertical/horizontal vectors R_h, R_w.
//
// Input/output are NCHW feature maps (B, D, H, W); tokens are the H*W spatial
// positions with D channels. Following BoTNet, the Q/K/V projections carry no
// bias. With `layer_norm_out` the concatenated head outputs pass through a
// LayerNorm (Eq. 17), stabilizing the un-normalized ReLU attention.
#pragma once

#include <functional>

#include "nodetr/nn/norm.hpp"

namespace nodetr::nn {

enum class AttentionKind {
  kSoftmax,  ///< original scaled-dot-product attention
  kRelu,     ///< ReLU attention (one comparator + one mux in hardware)
};

enum class PosEncodingKind {
  kNone,
  kAbsoluteSinusoidal,  ///< added to tokens before the projections
  kRelative2d,          ///< learnable R_h, R_w fused into logits as Q R^T
};

struct MhsaConfig {
  index_t dim = 64;     ///< D: channels of the feature map
  index_t heads = 4;    ///< k: number of attention heads (D % k == 0)
  index_t height = 6;   ///< H of the expected feature map
  index_t width = 6;    ///< W of the expected feature map
  AttentionKind attention = AttentionKind::kRelu;
  PosEncodingKind pos = PosEncodingKind::kRelative2d;
  bool layer_norm_out = true;

  [[nodiscard]] index_t head_dim() const { return dim / heads; }
  [[nodiscard]] index_t tokens() const { return height * width; }
};

class MultiHeadSelfAttention;

/// The learned tensors of an MHSA layer, in float.
struct MhsaWeights {
  Tensor wq, wk, wv;        ///< (D, D)
  Tensor rel_h, rel_w;      ///< (heads, H, Dh), (heads, W, Dh); empty if unused
  Tensor ln_gamma, ln_beta; ///< (D); empty without the output LayerNorm

  /// Extract from a module (weights are copied).
  static MhsaWeights from_module(MultiHeadSelfAttention& mhsa);

  /// Throws std::invalid_argument, naming the tensor, when a shape does not
  /// fit `config`; the tensors `config` has no use for must be empty.
  void check(const MhsaConfig& config) const;
};

/// The (H*W, Dh) relative-position matrix of `head` from the tables rel_h
/// (heads, H, Dh) and rel_w (heads, W, Dh):
/// R[(y,x), :] = rel_h[head, y, :] + rel_w[head, x, :].
[[nodiscard]] Tensor relative_matrix(const Tensor& rel_h, const Tensor& rel_w, index_t head);

class MultiHeadSelfAttention final : public Module {
 public:
  /// Inference-time offload hook: when set, forward() delegates to this
  /// function (e.g. a simulated FPGA IP core) instead of computing locally.
  /// The override receives the input feature map and this module (for weight
  /// access). backward() is unsupported while an override is active.
  using ForwardOverride = std::function<Tensor(const Tensor&, MultiHeadSelfAttention&)>;

  /// Projections and relative tables drawn from `rng`; the LayerNorm starts
  /// at gain 1 and bias 0.
  MultiHeadSelfAttention(MhsaConfig config, Rng& rng);
  /// Takes `weights` as they are; they must pass weights.check(config).
  MultiHeadSelfAttention(MhsaConfig config, MhsaWeights weights);

  /// x: (B, D, H, W) -> (B, D, H, W).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<Param*> local_parameters() override;
  [[nodiscard]] std::vector<Module*> children() override;

  [[nodiscard]] const MhsaConfig& config() const { return config_; }

  /// The full (N, head_dim) relative-position matrix for head `h`:
  /// R[(y,x), :] = R_h[y, :] + R_w[x, :] (i.e. R = R_h 1^T + 1 R_w^T).
  /// nn::relative_matrix over this module's tables.
  [[nodiscard]] Tensor relative_matrix(index_t head) const;

  /// Mean fraction of exactly-zero attention weights over the last forward —
  /// ReLU attention sparsifies the attention map ([25], Sec. V-A).
  /// An inference forward run inside a task of the global pool (each image
  /// of a batched LightweightTransformer::predict_logits) leaves this and
  /// attention_weights() as they were.
  [[nodiscard]] float last_attention_sparsity() const { return last_sparsity_; }

  /// Attention weights (N, N) of `head` for batch element `sample` from the
  /// most recent (non-overridden) forward — for analyzing information flow,
  /// e.g. the sparsification study of [25]. Kept under the same rule as
  /// last_attention_sparsity().
  [[nodiscard]] const Tensor& attention_weights(index_t sample, index_t head) const;

  void set_forward_override(ForwardOverride f) { override_ = std::move(f); }
  void clear_forward_override() { override_ = nullptr; }
  [[nodiscard]] bool has_forward_override() const { return static_cast<bool>(override_); }

  [[nodiscard]] const Param& wq() const { return wq_; }
  [[nodiscard]] const Param& wk() const { return wk_; }
  [[nodiscard]] const Param& wv() const { return wv_; }
  [[nodiscard]] const Param& rel_h() const { return rel_h_; }
  [[nodiscard]] const Param& rel_w() const { return rel_w_; }
  /// Output LayerNorm (null unless layer_norm_out).
  [[nodiscard]] LayerNorm* layer_norm() { return ln_.get(); }

 private:
  void release_backward_state() override {
    tokens_ = Tensor();
    q_ = Tensor();
    k_ = Tensor();
    v_ = Tensor();
  }
  /// relative_matrix(h) for every head; empty without relative encoding.
  [[nodiscard]] std::vector<Tensor> relative_matrices() const;

  MhsaConfig config_;
  Param wq_, wk_, wv_;  ///< (D, D) each
  Param rel_h_;         ///< (heads, H, head_dim)
  Param rel_w_;         ///< (heads, W, head_dim)
  std::unique_ptr<LayerNorm> ln_;
  Tensor abs_pos_;      ///< (N, D) sinusoidal table (when enabled)

  // Backward state, kept only by a recording forward.
  Tensor tokens_;  ///< (B*N, D) projection input (after abs-pos addition)
  Tensor q_, k_, v_;
  // Kept by every local forward outside a global-pool task, and by every
  // recording forward, for attention_weights() and backward().
  std::vector<Tensor> attn_;  ///< per (b*heads + h): (N, N) attention weights
  index_t batch_ = 0;
  float last_sparsity_ = 0.0f;
  ForwardOverride override_;
};

}  // namespace nodetr::nn
