#include "nodetr/nn/attention.hpp"

#include <cmath>
#include <stdexcept>

#include "nodetr/nn/posenc.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"

namespace nodetr::nn {

namespace nt = nodetr::tensor;

namespace {

/// Offset of the (N, Dh) head block for sample `b`, head `h` inside a
/// (B*N, D) matrix. The block is addressed in place as a strided GemmView
/// with leading dimension D — no gather/scatter copies.
index_t head_offset(index_t b, index_t n, index_t d, index_t h, index_t dh) {
  return b * n * d + h * dh;
}

/// (B, D, H, W) feature map -> (B*N, D) token rows.
Tensor to_tokens(const Tensor& x) {
  const index_t b = x.dim(0), d = x.dim(1), n = x.dim(2) * x.dim(3);
  Tensor t(Shape{b * n, d});
  for (index_t s = 0; s < b; ++s) {
    const float* src = x.data() + s * d * n;
    float* dst = t.data() + s * n * d;
    for (index_t c = 0; c < d; ++c) {
      for (index_t r = 0; r < n; ++r) dst[r * d + c] = src[c * n + r];
    }
  }
  return t;
}

/// (B*N, D) token rows -> (B, D, H, W) feature map.
Tensor to_feature_map(const Tensor& t, index_t b, index_t h, index_t w) {
  const index_t d = t.dim(1), n = h * w;
  Tensor x(Shape{b, d, h, w});
  for (index_t s = 0; s < b; ++s) {
    const float* src = t.data() + s * n * d;
    float* dst = x.data() + s * d * n;
    for (index_t c = 0; c < d; ++c) {
      for (index_t r = 0; r < n; ++r) dst[c * n + r] = src[r * d + c];
    }
  }
  return x;
}

const MhsaConfig& checked(const MhsaConfig& config) {
  if (config.heads < 1 || config.dim % config.heads != 0) {
    throw std::invalid_argument("MHSA: dim must be divisible by heads");
  }
  return config;
}

/// `config`, once `weights` passed weights.check(config).
const MhsaConfig& checked(const MhsaConfig& config, const MhsaWeights& weights) {
  weights.check(config);
  return config;
}

/// `used`: `t` must have shape `want`; otherwise it must be empty.
void check_weight(const char* name, const Tensor& t, const Shape& want, bool used) {
  if (used ? t.shape() != want : !t.empty()) {
    throw std::invalid_argument(std::string("MHSA: tensor '") + name + "' has shape " +
                                t.shape().to_string() + ", expected " +
                                (used ? want.to_string() : std::string("none")));
  }
}

/// `config`'s tensors, the projections and relative tables drawn from `rng`
/// in the order wq, wk, wv, rel_h, rel_w.
MhsaWeights draw_weights(const MhsaConfig& config, Rng& rng) {
  const index_t d = checked(config).dim;
  const float proj_std = 1.0f / std::sqrt(static_cast<float>(d));
  MhsaWeights w;
  w.wq = rng.randn(Shape{d, d}, 0.0f, proj_std);
  w.wk = rng.randn(Shape{d, d}, 0.0f, proj_std);
  w.wv = rng.randn(Shape{d, d}, 0.0f, proj_std);
  if (config.pos == PosEncodingKind::kRelative2d) {
    // "Initial values of these vectors are drawn from a normal distribution."
    const index_t dh = config.head_dim();
    const float pos_std = 1.0f / std::sqrt(static_cast<float>(dh));
    w.rel_h = rng.randn(Shape{config.heads, config.height, dh}, 0.0f, pos_std);
    w.rel_w = rng.randn(Shape{config.heads, config.width, dh}, 0.0f, pos_std);
  }
  if (config.layer_norm_out) {
    w.ln_gamma = Tensor(Shape{d}, 1.0f);
    w.ln_beta = Tensor(Shape{d});
  }
  return w;
}

}  // namespace

Tensor relative_matrix(const Tensor& rel_h, const Tensor& rel_w, index_t head) {
  const index_t h = rel_h.dim(1), w = rel_w.dim(1), dh = rel_h.dim(2);
  Tensor r(Shape{h * w, dh});
  for (index_t y = 0; y < h; ++y) {
    const float* rh = rel_h.data() + (head * h + y) * dh;
    for (index_t x = 0; x < w; ++x) {
      const float* rw = rel_w.data() + (head * w + x) * dh;
      float* dst = r.data() + (y * w + x) * dh;
      for (index_t c = 0; c < dh; ++c) dst[c] = rh[c] + rw[c];
    }
  }
  return r;
}

MultiHeadSelfAttention::MultiHeadSelfAttention(MhsaConfig config, Rng& rng)
    : MultiHeadSelfAttention(config, draw_weights(config, rng)) {}

MultiHeadSelfAttention::MultiHeadSelfAttention(MhsaConfig config, MhsaWeights weights)
    : config_(checked(config, weights)),
      wq_("wq", std::move(weights.wq)), wk_("wk", std::move(weights.wk)),
      wv_("wv", std::move(weights.wv)),
      rel_h_("rel_h", std::move(weights.rel_h)), rel_w_("rel_w", std::move(weights.rel_w)) {
  if (config_.layer_norm_out) {
    ln_ = std::make_unique<LayerNorm>(config_.dim);
    ln_->gamma().value = std::move(weights.ln_gamma);
    ln_->beta().value = std::move(weights.ln_beta);
  }
  if (config_.pos == PosEncodingKind::kAbsoluteSinusoidal) {
    abs_pos_ = sinusoidal_encoding(config_.tokens(), config_.dim);
  }
}

void MhsaWeights::check(const MhsaConfig& config) const {
  const index_t d = checked(config).dim, dh = config.head_dim(), heads = config.heads;
  const bool rel = config.pos == PosEncodingKind::kRelative2d, ln = config.layer_norm_out;
  check_weight("wq", wq, Shape{d, d}, true);
  check_weight("wk", wk, Shape{d, d}, true);
  check_weight("wv", wv, Shape{d, d}, true);
  check_weight("rel_h", rel_h, Shape{heads, config.height, dh}, rel);
  check_weight("rel_w", rel_w, Shape{heads, config.width, dh}, rel);
  check_weight("ln_gamma", ln_gamma, Shape{d}, ln);
  check_weight("ln_beta", ln_beta, Shape{d}, ln);
}

MhsaWeights MhsaWeights::from_module(MultiHeadSelfAttention& mhsa) {
  MhsaWeights w;
  w.wq = mhsa.wq().value;
  w.wk = mhsa.wk().value;
  w.wv = mhsa.wv().value;
  if (mhsa.config().pos == PosEncodingKind::kRelative2d) {
    w.rel_h = mhsa.rel_h().value;
    w.rel_w = mhsa.rel_w().value;
  }
  if (LayerNorm* ln = mhsa.layer_norm()) {
    w.ln_gamma = ln->gamma().value;
    w.ln_beta = ln->beta().value;
  }
  return w;
}

const Tensor& MultiHeadSelfAttention::attention_weights(index_t sample, index_t head) const {
  if (sample < 0 || sample >= batch_ || head < 0 || head >= config_.heads) {
    throw std::out_of_range("MHSA::attention_weights: sample/head out of range");
  }
  return attn_[static_cast<std::size_t>(sample * config_.heads + head)];
}

Tensor MultiHeadSelfAttention::relative_matrix(index_t head) const {
  return nn::relative_matrix(rel_h_.value, rel_w_.value, head);
}

std::vector<Tensor> MultiHeadSelfAttention::relative_matrices() const {
  std::vector<Tensor> rel;
  if (config_.pos != PosEncodingKind::kRelative2d) return rel;
  rel.reserve(static_cast<std::size_t>(config_.heads));
  for (index_t h = 0; h < config_.heads; ++h) rel.push_back(relative_matrix(h));
  return rel;
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  begin_forward();
  obs::ScopedSpan span("mhsa.forward");
  span.attr("dim", config_.dim);
  span.attr("heads", config_.heads);
  static auto& forwards = obs::Registry::instance().counter("nn.mhsa.forwards");
  forwards.add();
  if (override_) {
    // Offloaded execution (e.g. the simulated accelerator) nests under this
    // span so software and offloaded runs line up in one trace.
    span.attr("offloaded", std::int64_t{1});
    return override_(x, *this);
  }
  if (x.rank() != 4 || x.dim(1) != config_.dim || x.dim(2) != config_.height ||
      x.dim(3) != config_.width) {
    throw std::invalid_argument("MHSA: expected (B, " + std::to_string(config_.dim) + ", " +
                                std::to_string(config_.height) + ", " +
                                std::to_string(config_.width) + "), got " +
                                x.shape().to_string());
  }
  const index_t b = x.dim(0), d = config_.dim, n = config_.tokens();
  const index_t heads = config_.heads, dh = config_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  // backward() needs attn_ and batch_, so a recording forward always keeps
  // them. An inference forward inside a task of the global pool may run
  // beside other forwards on this module (predict_logits runs one image per
  // task), so it leaves the diagnostics as they were.
  const bool keep = recording() || !nt::ThreadPool::global().in_task();

  Tensor tokens = to_tokens(x);
  if (config_.pos == PosEncodingKind::kAbsoluteSinusoidal) {
    for (index_t s = 0; s < b; ++s) {
      for (index_t r = 0; r < n; ++r) {
        float* row = tokens.data() + (s * n + r) * d;
        const float* p = abs_pos_.data() + r * d;
        for (index_t c = 0; c < d; ++c) row[c] += p[c];
      }
    }
  }

  Tensor q, k, v;
  {
    NODETR_TRACE_SCOPE("mhsa.qkv_projection");
    q = nt::matmul(tokens, wq_.value);
    k = nt::matmul(tokens, wk_.value);
    v = nt::matmul(tokens, wv_.value);
  }
  const std::vector<Tensor> rel = relative_matrices();

  Tensor out(Shape{b * n, d});
  if (keep) {
    batch_ = b;
    attn_.assign(static_cast<std::size_t>(b * heads), Tensor());
  }
  std::vector<index_t> zeros(static_cast<std::size_t>(b * heads), 0);
  obs::ScopedSpan attn_span("mhsa.attention");
  // One task per (sample, head). Each task's GEMMs are far below the GEMM's
  // fork/join threshold, so they run on the task's own thread, and each task
  // writes only its own column block of `out`.
  nt::parallel_for(0, b * heads, [&](index_t lo, index_t hi) {
    for (index_t task = lo; task < hi; ++task) {
      const index_t s = task / heads, h = task % heads;
      const index_t off = head_offset(s, n, d, h, dh);
      const auto qh = nt::GemmView::plain(q.data() + off, d);
      const auto kh = nt::GemmView::transposed(k.data() + off, d);
      const auto vh = nt::GemmView::plain(v.data() + off, d);
      // logits = (Q K^T [+ Q R^T]) / sqrt(Dh)  — Eq. (15).
      Tensor logits(Shape{n, n});
      nt::gemm_blocked(n, dh, n, qh, kh, logits.data(), n);
      if (!rel.empty()) {
        nt::gemm_blocked(n, dh, n, qh,
                         nt::GemmView::transposed(rel[static_cast<std::size_t>(h)].data(), dh),
                         logits.data(), n, {.accumulate = true});
      }
      logits *= scale;
      Tensor a = (config_.attention == AttentionKind::kRelu) ? nt::relu(logits)
                                                             : nt::softmax_rows(logits);
      index_t z = 0;
      for (index_t i = 0; i < a.numel(); ++i) z += (a[i] == 0.0f) ? 1 : 0;
      zeros[static_cast<std::size_t>(task)] = z;
      // O head block = A V, written straight into its strided slot of `out`.
      nt::gemm_blocked(n, n, dh, nt::GemmView::plain(a.data(), n), vh, out.data() + off, d);
      if (keep) attn_[static_cast<std::size_t>(task)] = std::move(a);
    }
  }, /*grain=*/1);
  index_t zero_count = 0;
  for (const index_t z : zeros) zero_count += z;
  const float sparsity = static_cast<float>(static_cast<double>(zero_count) /
                                            static_cast<double>(b * heads * n * n));
  if (keep) last_sparsity_ = sparsity;
  attn_span.attr("sparsity", static_cast<double>(sparsity));
  attn_span.end();

  if (ln_) {
    NODETR_TRACE_SCOPE("mhsa.layer_norm");
    out = ln_->forward(out);
  }
  if (recording()) {
    tokens_ = std::move(tokens);
    q_ = std::move(q);
    k_ = std::move(k);
    v_ = std::move(v);
  }
  return to_feature_map(out, b, config_.height, config_.width);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  if (override_) {
    throw std::logic_error("MHSA::backward: unsupported while a forward override is active");
  }
  require_backward_state();
  const index_t b = batch_, d = config_.dim, n = config_.tokens();
  const index_t heads = config_.heads, dh = config_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::vector<Tensor> rel = relative_matrices();

  Tensor g = to_tokens(grad_out);
  if (ln_) g = ln_->backward(g);

  Tensor gq(Shape{b * n, d}), gk(Shape{b * n, d}), gv(Shape{b * n, d});
  for (index_t s = 0; s < b; ++s) {
    for (index_t h = 0; h < heads; ++h) {
      const Tensor& a = attn_[static_cast<std::size_t>(s * heads + h)];
      const index_t off = head_offset(s, n, d, h, dh);
      const auto qh = nt::GemmView::plain(q_.data() + off, d);
      const auto goh = nt::GemmView::plain(g.data() + off, d);

      Tensor ga(Shape{n, n});  // gA = gOh V^T
      nt::gemm_blocked(n, dh, n, goh, nt::GemmView::transposed(v_.data() + off, d), ga.data(), n);
      // gV head block = A^T gOh, written in place into its slot of gv.
      nt::gemm_blocked(n, n, dh, nt::GemmView::transposed(a.data(), n), goh, gv.data() + off, d);

      Tensor glogits(Shape{n, n});
      if (config_.attention == AttentionKind::kRelu) {
        // ReLU': positive attention weight <=> positive logit.
        for (index_t i = 0; i < glogits.numel(); ++i) {
          glogits[i] = a[i] > 0.0f ? ga[i] : 0.0f;
        }
      } else {
        // Softmax rows: dl = A * (gA - <gA, A>_row).
        for (index_t r = 0; r < n; ++r) {
          const float* arow = a.data() + r * n;
          const float* garow = ga.data() + r * n;
          float* glrow = glogits.data() + r * n;
          double dot = 0.0;
          for (index_t c = 0; c < n; ++c) dot += static_cast<double>(garow[c]) * arow[c];
          for (index_t c = 0; c < n; ++c) {
            glrow[c] = arow[c] * (garow[c] - static_cast<float>(dot));
          }
        }
      }
      glogits *= scale;
      const auto gl = nt::GemmView::plain(glogits.data(), n);
      const auto gl_t = nt::GemmView::transposed(glogits.data(), n);

      // Q gets contributions from both Q K^T and Q R^T.
      nt::gemm_blocked(n, n, dh, gl, nt::GemmView::plain(k_.data() + off, d), gq.data() + off, d);
      // gK head block = glogits^T Q.
      nt::gemm_blocked(n, n, dh, gl_t, qh, gk.data() + off, d);
      if (!rel.empty()) {
        nt::gemm_blocked(n, n, dh, gl,
                         nt::GemmView::plain(rel[static_cast<std::size_t>(h)].data(), dh),
                         gq.data() + off, d, {.accumulate = true});
        // gR = glogits^T Q — already sitting in the gK block — marginalized
        // onto R_h (rows) and R_w (cols).
        const index_t hh = config_.height, ww = config_.width;
        for (index_t y = 0; y < hh; ++y) {
          float* grh = rel_h_.grad.data() + (h * hh + y) * dh;
          for (index_t x = 0; x < ww; ++x) {
            float* grw = rel_w_.grad.data() + (h * ww + x) * dh;
            const float* src = gk.data() + off + (y * ww + x) * d;
            for (index_t c = 0; c < dh; ++c) {
              grh[c] += src[c];
              grw[c] += src[c];
            }
          }
        }
      }
    }
  }

  // dW* (D,D) += tokens^T g*, accumulated directly into the grad buffers.
  const auto tok_t = nt::GemmView::transposed(tokens_.data(), d);
  nt::gemm_blocked(d, b * n, d, tok_t, nt::GemmView::plain(gq.data(), d), wq_.grad.data(), d,
                   {.accumulate = true});
  nt::gemm_blocked(d, b * n, d, tok_t, nt::GemmView::plain(gk.data(), d), wk_.grad.data(), d,
                   {.accumulate = true});
  nt::gemm_blocked(d, b * n, d, tok_t, nt::GemmView::plain(gv.data(), d), wv_.grad.data(), d,
                   {.accumulate = true});

  Tensor gtok(Shape{b * n, d});
  nt::gemm_blocked(b * n, d, d, nt::GemmView::plain(gq.data(), d),
                   nt::GemmView::transposed(wq_.value.data(), d), gtok.data(), d);
  nt::gemm_blocked(b * n, d, d, nt::GemmView::plain(gk.data(), d),
                   nt::GemmView::transposed(wk_.value.data(), d), gtok.data(), d,
                   {.accumulate = true});
  nt::gemm_blocked(b * n, d, d, nt::GemmView::plain(gv.data(), d),
                   nt::GemmView::transposed(wv_.value.data(), d), gtok.data(), d,
                   {.accumulate = true});
  // Absolute positional table is a constant; its addition passes the gradient
  // through unchanged.
  return to_feature_map(gtok, b, config_.height, config_.width);
}

std::string MultiHeadSelfAttention::name() const {
  return "MHSA(D=" + std::to_string(config_.dim) + ",heads=" + std::to_string(config_.heads) +
         "," + std::to_string(config_.height) + "x" + std::to_string(config_.width) +
         (config_.attention == AttentionKind::kRelu ? ",relu" : ",softmax") + ")";
}

std::vector<Param*> MultiHeadSelfAttention::local_parameters() {
  std::vector<Param*> p{&wq_, &wk_, &wv_};
  if (config_.pos == PosEncodingKind::kRelative2d) {
    p.push_back(&rel_h_);
    p.push_back(&rel_w_);
  }
  return p;
}

std::vector<Module*> MultiHeadSelfAttention::children() {
  if (ln_) return {ln_.get()};
  return {};
}

}  // namespace nodetr::nn
