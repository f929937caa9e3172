#include "nodetr/nn/seq_attention.hpp"

#include <cmath>
#include <stdexcept>

#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"

namespace nodetr::nn {

namespace nt = nodetr::tensor;

namespace {

Tensor gather_head(const Tensor& m, index_t b, index_t t, index_t h, index_t dh) {
  Tensor out(Shape{t, dh});
  const index_t d = m.dim(1);
  for (index_t r = 0; r < t; ++r) {
    const float* src = m.data() + (b * t + r) * d + h * dh;
    std::copy(src, src + dh, out.data() + r * dh);
  }
  return out;
}

void scatter_head(const Tensor& block, Tensor& m, index_t b, index_t t, index_t h, index_t dh) {
  const index_t d = m.dim(1);
  for (index_t r = 0; r < t; ++r) {
    float* dst = m.data() + (b * t + r) * d + h * dh;
    const float* src = block.data() + r * dh;
    for (index_t c = 0; c < dh; ++c) dst[c] += src[c];
  }
}

}  // namespace

SeqMhsa::SeqMhsa(index_t dim, index_t heads, Rng& rng)
    : dim_(dim), heads_(heads), wq_("wq", {}), wk_("wk", {}), wv_("wv", {}) {
  if (dim % heads != 0) throw std::invalid_argument("SeqMhsa: dim must be divisible by heads");
  const float std = 1.0f / std::sqrt(static_cast<float>(dim));
  wq_ = Param("wq", rng.randn(Shape{dim, dim}, 0.0f, std));
  wk_ = Param("wk", rng.randn(Shape{dim, dim}, 0.0f, std));
  wv_ = Param("wv", rng.randn(Shape{dim, dim}, 0.0f, std));
}

Tensor SeqMhsa::forward(const Tensor& x) {
  if (x.rank() != 3 || x.dim(2) != dim_) {
    throw std::invalid_argument("SeqMhsa: expected (B, T, " + std::to_string(dim_) + "), got " +
                                x.shape().to_string());
  }
  begin_forward();
  batch_ = x.dim(0);
  tokens_ = x.dim(1);
  const index_t dh = dim_ / heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor x2 = x.reshape(Shape{batch_ * tokens_, dim_});
  Tensor q = nt::matmul(x2, wq_.value);
  Tensor k = nt::matmul(x2, wk_.value);
  Tensor v = nt::matmul(x2, wv_.value);
  Tensor out(Shape{batch_ * tokens_, dim_});
  std::vector<Tensor> attn(static_cast<std::size_t>(batch_ * heads_));
  for (index_t b = 0; b < batch_; ++b) {
    for (index_t h = 0; h < heads_; ++h) {
      Tensor qh = gather_head(q, b, tokens_, h, dh);
      Tensor kh = gather_head(k, b, tokens_, h, dh);
      Tensor vh = gather_head(v, b, tokens_, h, dh);
      Tensor logits = nt::matmul_nt(qh, kh);
      logits *= scale;
      Tensor a = nt::softmax_rows(logits);
      Tensor oh = nt::matmul(a, vh);
      scatter_head(oh, out, b, tokens_, h, dh);
      attn[static_cast<std::size_t>(b * heads_ + h)] = std::move(a);
    }
  }
  if (recording()) {
    x2_ = std::move(x2);
    q_ = std::move(q);
    k_ = std::move(k);
    v_ = std::move(v);
    attn_ = std::move(attn);
  }
  return out.reshape(Shape{batch_, tokens_, dim_});
}

Tensor SeqMhsa::backward(const Tensor& grad_out) {
  require_backward_state();
  const index_t dh = dim_ / heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor g = grad_out.reshape(Shape{batch_ * tokens_, dim_});
  Tensor gq(g.shape()), gk(g.shape()), gv(g.shape());
  for (index_t b = 0; b < batch_; ++b) {
    for (index_t h = 0; h < heads_; ++h) {
      const Tensor& a = attn_[static_cast<std::size_t>(b * heads_ + h)];
      Tensor qh = gather_head(q_, b, tokens_, h, dh);
      Tensor kh = gather_head(k_, b, tokens_, h, dh);
      Tensor vh = gather_head(v_, b, tokens_, h, dh);
      Tensor goh = gather_head(g, b, tokens_, h, dh);
      Tensor ga = nt::matmul_nt(goh, vh);
      Tensor gvh = nt::matmul_tn(a, goh);
      Tensor glogits(Shape{tokens_, tokens_});
      for (index_t r = 0; r < tokens_; ++r) {
        const float* arow = a.data() + r * tokens_;
        const float* garow = ga.data() + r * tokens_;
        float* glrow = glogits.data() + r * tokens_;
        double dot = 0.0;
        for (index_t c = 0; c < tokens_; ++c) dot += static_cast<double>(garow[c]) * arow[c];
        for (index_t c = 0; c < tokens_; ++c) glrow[c] = arow[c] * (garow[c] - static_cast<float>(dot));
      }
      glogits *= scale;
      Tensor gqh = nt::matmul(glogits, kh);
      Tensor gkh = nt::matmul_tn(glogits, qh);
      scatter_head(gqh, gq, b, tokens_, h, dh);
      scatter_head(gkh, gk, b, tokens_, h, dh);
      scatter_head(gvh, gv, b, tokens_, h, dh);
    }
  }
  wq_.grad += nt::matmul_tn(x2_, gq);
  wk_.grad += nt::matmul_tn(x2_, gk);
  wv_.grad += nt::matmul_tn(x2_, gv);
  Tensor gx = nt::matmul_nt(gq, wq_.value);
  gx += nt::matmul_nt(gk, wk_.value);
  gx += nt::matmul_nt(gv, wv_.value);
  return gx.reshape(Shape{batch_, tokens_, dim_});
}

std::string SeqMhsa::name() const {
  return "SeqMhsa(D=" + std::to_string(dim_) + ",heads=" + std::to_string(heads_) + ")";
}

}  // namespace nodetr::nn
