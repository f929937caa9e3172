#include "nodetr/hls/mhsa_ip.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nodetr/fault/fault.hpp"
#include "nodetr/fx/block_quant.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"

namespace nodetr::hls {

namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;

MhsaWeights MhsaWeights::from_module(nodetr::nn::MultiHeadSelfAttention& mhsa) {
  MhsaWeights w;
  w.wq = mhsa.wq().value;
  w.wk = mhsa.wk().value;
  w.wv = mhsa.wv().value;
  if (mhsa.config().pos == nodetr::nn::PosEncodingKind::kRelative2d) {
    w.rel_h = mhsa.rel_h().value;
    w.rel_w = mhsa.rel_w().value;
  }
  if (auto* ln = mhsa.layer_norm()) {
    auto params = ln->local_parameters();
    w.ln_gamma = params[0]->value;
    w.ln_beta = params[1]->value;
  }
  return w;
}

namespace {

/// R[(y,x),:] = rel_h[head,y,:] + rel_w[head,x,:].
Tensor relative_matrix(const Tensor& rel_h, const Tensor& rel_w, index_t head, index_t h,
                       index_t w, index_t dh) {
  Tensor r(nt::Shape{h * w, dh});
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

}  // namespace

MhsaIpCore::MhsaIpCore(MhsaDesignPoint point, MhsaWeights weights)
    : point_(point), weights_(std::move(weights)) {
  const index_t d = point_.dim;
  if (weights_.wq.shape() != nt::Shape{d, d} || weights_.wk.shape() != nt::Shape{d, d} ||
      weights_.wv.shape() != nt::Shape{d, d}) {
    throw std::invalid_argument("MhsaIpCore: weight shape does not match design point");
  }
  if (!weights_.rel_h.empty()) {
    const nt::Shape want_h{point_.heads, point_.height, point_.head_dim()};
    const nt::Shape want_w{point_.heads, point_.width, point_.head_dim()};
    if (weights_.rel_h.shape() != want_h || weights_.rel_w.shape() != want_w) {
      throw std::invalid_argument("MhsaIpCore: relative-position shape mismatch");
    }
  }
  if (point_.wire_block < 1) {
    throw std::invalid_argument("MhsaIpCore: wire_block must be >= 1");
  }
  if (point_.wire != WeightWire::kWord32) {
    // The DDR-resident copy of the projection weights and relative tables is
    // block-quantized; the IP dequantizes into its on-chip buffers as the
    // beats land. Round-tripping here makes both datapaths (float and fixed)
    // compute on exactly the weights the wire can carry — the accuracy cost
    // of the quantized wire is real, not just an accounting trick. The
    // LayerNorm gain/bias stay full-width (see WeightWire).
    const fx::BlockType bt = point_.wire == WeightWire::kBlockInt8 ? fx::BlockType::kInt8
                                                                   : fx::BlockType::kInt4;
    const index_t bs = point_.wire_block;
    weights_.wq = fx::block_roundtrip(weights_.wq, bt, bs);
    weights_.wk = fx::block_roundtrip(weights_.wk, bt, bs);
    weights_.wv = fx::block_roundtrip(weights_.wv, bt, bs);
    if (!weights_.rel_h.empty()) {
      weights_.rel_h = fx::block_roundtrip(weights_.rel_h, bt, bs);
      weights_.rel_w = fx::block_roundtrip(weights_.rel_w, bt, bs);
    }
  }
  const auto pf = point_.scheme.param;
  std::vector<fx::FixedTensor> rel;
  if (!weights_.rel_h.empty()) {
    // R_h from the parameter-format tables, summed at float and requantized
    // into the parameter format, as the IP builds it in its on-chip buffer.
    const Tensor rel_h = fx::FixedTensor::from_float(weights_.rel_h, pf).to_float();
    const Tensor rel_w = fx::FixedTensor::from_float(weights_.rel_w, pf).to_float();
    for (index_t h = 0; h < point_.heads; ++h) {
      rel.push_back(fx::FixedTensor::from_float(
          relative_matrix(rel_h, rel_w, h, point_.height, point_.width, point_.head_dim()), pf));
    }
  }
  fx::FixedTensor ln_gamma, ln_beta;
  if (!weights_.ln_gamma.empty()) {
    ln_gamma = fx::FixedTensor::from_float(weights_.ln_gamma, pf);
    ln_beta = fx::FixedTensor::from_float(weights_.ln_beta, pf);
  }
  fixed_ = fx::QMhsa(
      fx::FixedTensor::from_float(weights_.wq, pf), fx::FixedTensor::from_float(weights_.wk, pf),
      fx::FixedTensor::from_float(weights_.wv, pf), rel, ln_gamma, ln_beta, point_.heads,
      point_.tokens(), point_.scheme.feature,
      1.0f / std::sqrt(static_cast<float>(point_.head_dim())));
}

std::int64_t MhsaIpCore::dma_bytes_per_image() const {
  return weight_dma_bytes() + io_dma_bytes_per_image();
}

std::int64_t MhsaIpCore::weight_float_bytes() const {
  const std::int64_t d = point_.dim;
  std::int64_t words = 3 * d * d;      // Wq, Wk, Wv (reloaded into the shared buffer)
  if (!weights_.rel_h.empty()) {
    words += point_.heads * (point_.height + point_.width) * point_.head_dim();
  }
  if (!weights_.ln_gamma.empty()) words += 2 * d;
  return words * 4;                    // 32-bit HP0 beats
}

std::int64_t MhsaIpCore::weight_dma_bytes() const {
  if (point_.wire == WeightWire::kWord32) return weight_float_bytes();
  const fx::BlockType bt = point_.wire == WeightWire::kBlockInt8 ? fx::BlockType::kInt8
                                                                 : fx::BlockType::kInt4;
  const index_t bs = point_.wire_block;
  const std::int64_t d = point_.dim;
  std::int64_t bytes = 3 * fx::BlockQuantTensor::payload_bytes_for(d * d, bt, bs);
  if (!weights_.rel_h.empty()) {
    const index_t dh = point_.head_dim();
    bytes += fx::BlockQuantTensor::payload_bytes_for(point_.heads * point_.height * dh, bt, bs);
    bytes += fx::BlockQuantTensor::payload_bytes_for(point_.heads * point_.width * dh, bt, bs);
  }
  // LayerNorm gain/bias ride the wire at full width (see WeightWire).
  if (!weights_.ln_gamma.empty()) bytes += 2 * d * 4;
  return bytes;
}

std::int64_t MhsaIpCore::io_dma_bytes_per_image() const {
  return input_dma_bytes_per_image() + output_dma_bytes_per_image();
}

std::int64_t MhsaIpCore::input_dma_bytes_per_image() const {
  const std::int64_t d = point_.dim, n = point_.tokens();
  return n * d * 4;                    // input stream
}

std::int64_t MhsaIpCore::output_dma_bytes_per_image() const {
  const std::int64_t d = point_.dim, n = point_.tokens();
  return n * d * 4;                    // output stream (same shape as input)
}

namespace {

/// (B, D, H, W) maps -> (B*N, D) tokens: one (D, N) -> (N, D) transpose per image.
Tensor to_tokens(const float* x, index_t b, index_t d, index_t n) {
  Tensor tokens(nt::Shape{b * n, d});
  for (index_t s = 0; s < b; ++s) {
    const float* src = x + s * d * n;
    float* dst = tokens.data() + s * n * d;
    for (index_t c = 0; c < d; ++c) {
      for (index_t t = 0; t < n; ++t) dst[t * d + c] = src[c * n + t];
    }
  }
  return tokens;
}

/// (B*N, D) tokens -> (B, D, H, W) maps at `x`: the inverse transpose.
void from_tokens(const Tensor& tokens, index_t b, index_t d, index_t n, float* x) {
  for (index_t s = 0; s < b; ++s) {
    const float* src = tokens.data() + s * n * d;
    float* dst = x + s * d * n;
    for (index_t t = 0; t < n; ++t) {
      for (index_t c = 0; c < d; ++c) dst[c * n + t] = src[t * d + c];
    }
  }
}

Tensor gather_cols(const Tensor& m, index_t col0, index_t cols) {
  const index_t rows = m.dim(0), d = m.dim(1);
  Tensor out(nt::Shape{rows, cols});
  for (index_t r = 0; r < rows; ++r) {
    const float* src = m.data() + r * d + col0;
    std::copy(src, src + cols, out.data() + r * cols);
  }
  return out;
}

void scatter_cols(const Tensor& block, Tensor& m, index_t col0) {
  const index_t rows = m.dim(0), d = m.dim(1), cols = block.dim(1);
  for (index_t r = 0; r < rows; ++r) {
    std::copy(block.data() + r * cols, block.data() + (r + 1) * cols, m.data() + r * d + col0);
  }
}

}  // namespace

Tensor MhsaIpCore::run_tokens_float(const Tensor& tokens) const {
  const index_t n = point_.tokens(), d = point_.dim, heads = point_.heads,
                dh = point_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor q = nt::matmul(tokens, weights_.wq);
  Tensor k = nt::matmul(tokens, weights_.wk);
  Tensor v = nt::matmul(tokens, weights_.wv);
  Tensor out(nt::Shape{n, d});
  for (index_t h = 0; h < heads; ++h) {
    Tensor qh = gather_cols(q, h * dh, dh);
    Tensor kh = gather_cols(k, h * dh, dh);
    Tensor vh = gather_cols(v, h * dh, dh);
    Tensor logits = nt::matmul_nt(qh, kh);
    if (!weights_.rel_h.empty()) {
      logits += nt::matmul_nt(
          qh, relative_matrix(weights_.rel_h, weights_.rel_w, h, point_.height, point_.width, dh));
    }
    logits *= scale;
    Tensor a = nt::relu(logits);
    scatter_cols(nt::matmul(a, vh), out, h * dh);
  }
  if (!weights_.ln_gamma.empty()) {
    // Row-wise LayerNorm with learned gain/bias.
    for (index_t r = 0; r < n; ++r) {
      float* row = out.data() + r * d;
      double s = 0.0, s2 = 0.0;
      for (index_t c = 0; c < d; ++c) {
        s += row[c];
        s2 += static_cast<double>(row[c]) * row[c];
      }
      const double mean = s / d;
      const double var = std::max(s2 / d - mean * mean, 0.0);
      const float istd = static_cast<float>(1.0 / std::sqrt(var + 1e-5));
      for (index_t c = 0; c < d; ++c) {
        row[c] = weights_.ln_gamma[c] * (row[c] - static_cast<float>(mean)) * istd +
                 weights_.ln_beta[c];
      }
    }
  }
  return out;
}

// The IP computes Q, K and V sequentially through one shared weight buffer
// (Sec. V-B2); the host runs them as one product over [Wq|Wk|Wv], which
// rounds every element exactly as three products would.
fx::FixedTensor MhsaIpCore::run_fixed_tokens(const fx::FixedTensor& x) const {
  return fixed_.run(x);
}

Tensor MhsaIpCore::run(const Tensor& x) {
  obs::ScopedSpan span("hls.mhsa_ip.run");
  span.attr("dtype", point_.dtype == DataType::kFloat32 ? "float32" : "fixed");
  // Fault sites. A stall means this START will never raise DONE — the
  // accelerator driver latches it and lets its deadline diagnose the hang.
  // An overflow event is the fixed datapath's sticky saturation flag: the
  // arithmetic saturated hard enough that the driver must discard the run.
  if (fault::fire("hls.ip.stall")) throw fault::IpStallFault("hls.ip.stall");
  if (fault::fire("hls.ip.overflow")) {
    static auto& overflows = obs::Registry::instance().counter("hls.ip.overflow_events");
    overflows.add();
    throw fault::FixedOverflowFault("hls.ip.overflow");
  }
  // (D, H, W) is one image of (B, D, H, W); the output keeps x's shape.
  const index_t lead = x.rank() == 4 ? 1 : 0;
  if ((x.rank() != 3 && x.rank() != 4) || x.dim(lead) != point_.dim ||
      x.dim(lead + 1) != point_.height || x.dim(lead + 2) != point_.width) {
    throw std::invalid_argument("MhsaIpCore::run: input does not match design point " +
                                point_.to_string());
  }
  const index_t b = lead ? x.dim(0) : 1, d = point_.dim, n = point_.tokens();
  Tensor out(x.shape());
  if (point_.dtype == DataType::kFloat32) {
    const Tensor tokens = to_tokens(x.data(), b, d, n);
    Tensor out_tokens(tokens.shape());
    for (index_t s = 0; s < b; ++s) {
      const Tensor o = run_tokens_float(tokens.slice0(s * n, (s + 1) * n));
      std::copy(o.data(), o.data() + o.numel(), out_tokens.data() + s * n * d);
    }
    from_tokens(out_tokens, b, d, n, out.data());
  } else {
    fixed_.run_maps(x.data(), b, out.data());
  }
  // Latency: one IP invocation per image. With batch-resident weights the
  // weight share of the streaming stage is paid once per run(), not per image.
  CycleBreakdown one = cycle_model_.estimate(point_, !weights_.ln_gamma.empty());
  std::int64_t streaming = one.streaming * b;
  if (point_.residency == WeightResidency::kBatchResident) {
    const std::int64_t w = cycle_model_.weight_stream_cycles(point_);
    streaming = w + (one.streaming - w) * b;
  }
  last_cycles_ = CycleBreakdown{one.projection_each * b, one.qr * b,         one.qk * b,
                                one.relu * b,            one.av * b,
                                one.layer_norm * b,      streaming};
  // Simulated FPGA time rides on the wall-clock span so both land in one
  // trace; breakdown mirrors Table III's stages.
  span.attr("batch", b);
  span.attr("sim_cycles_total", last_cycles_.total());
  span.attr("sim_cycles_projections", 3 * last_cycles_.projection_each);
  span.attr("sim_cycles_qr", last_cycles_.qr);
  span.attr("sim_cycles_qk", last_cycles_.qk);
  span.attr("sim_cycles_relu", last_cycles_.relu);
  span.attr("sim_cycles_av", last_cycles_.av);
  span.attr("sim_cycles_layer_norm", last_cycles_.layer_norm);
  span.attr("sim_cycles_streaming", last_cycles_.streaming);
  span.attr("sim_ms", CycleModel::latency_ms(last_cycles_));
  static auto& invocations = obs::Registry::instance().counter("hls.mhsa_ip.invocations");
  static auto& sim_cycles = obs::Registry::instance().counter("hls.mhsa_ip.sim_cycles");
  invocations.add();
  sim_cycles.add(last_cycles_.total());
  return out;
}

}  // namespace nodetr::hls
