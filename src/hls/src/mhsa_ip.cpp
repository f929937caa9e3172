#include "nodetr/hls/mhsa_ip.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nodetr/fault/fault.hpp"
#include "nodetr/fx/block_quant.hpp"
#include "nodetr/obs/obs.hpp"

namespace nodetr::hls {

namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;

nn::MhsaConfig module_config(const MhsaDesignPoint& point, const MhsaWeights& weights) {
  return {.dim = point.dim, .heads = point.heads, .height = point.height, .width = point.width,
          .attention = nn::AttentionKind::kRelu,
          .pos = weights.rel_h.empty() ? nn::PosEncodingKind::kNone
                                       : nn::PosEncodingKind::kRelative2d,
          .layer_norm_out = !weights.ln_gamma.empty()};
}

MhsaIpCore::MhsaIpCore(MhsaDesignPoint point, MhsaWeights weights)
    : point_(point), config_(module_config(point, weights)) {
  weights.check(config_);
  if (point_.wire_block < 1) {
    throw std::invalid_argument("MhsaIpCore: wire_block must be >= 1");
  }
  if (point_.wire != WeightWire::kWord32) {
    // The DDR-resident copy of the projection weights and relative tables is
    // block-quantized; the IP dequantizes into its on-chip buffers as the
    // beats land. Round-tripping here makes either datapath compute on
    // exactly the weights the wire can carry — the accuracy cost of the
    // quantized wire is real, not just an accounting trick. The LayerNorm
    // gain/bias stay full-width (see WeightWire).
    const fx::BlockType bt = point_.wire == WeightWire::kBlockInt8 ? fx::BlockType::kInt8
                                                                   : fx::BlockType::kInt4;
    const index_t bs = point_.wire_block;
    weights.wq = fx::block_roundtrip(weights.wq, bt, bs);
    weights.wk = fx::block_roundtrip(weights.wk, bt, bs);
    weights.wv = fx::block_roundtrip(weights.wv, bt, bs);
    if (!weights.rel_h.empty()) {
      weights.rel_h = fx::block_roundtrip(weights.rel_h, bt, bs);
      weights.rel_w = fx::block_roundtrip(weights.rel_w, bt, bs);
    }
  }
  if (point_.dtype == DataType::kFloat32) {
    float_ = std::make_unique<nn::MultiHeadSelfAttention>(config_, std::move(weights));
    return;
  }
  const auto pf = point_.scheme.param;
  std::vector<fx::FixedTensor> rel;
  if (!weights.rel_h.empty()) {
    // R_h from the parameter-format tables, summed at float and requantized
    // into the parameter format, as the IP builds it in its on-chip buffer.
    const Tensor rel_h = fx::FixedTensor::from_float(weights.rel_h, pf).to_float();
    const Tensor rel_w = fx::FixedTensor::from_float(weights.rel_w, pf).to_float();
    for (index_t h = 0; h < point_.heads; ++h) {
      rel.push_back(fx::FixedTensor::from_float(nn::relative_matrix(rel_h, rel_w, h), pf));
    }
  }
  fx::FixedTensor ln_gamma, ln_beta;
  if (config_.layer_norm_out) {
    ln_gamma = fx::FixedTensor::from_float(weights.ln_gamma, pf);
    ln_beta = fx::FixedTensor::from_float(weights.ln_beta, pf);
  }
  fixed_ = fx::QMhsa(
      fx::FixedTensor::from_float(weights.wq, pf), fx::FixedTensor::from_float(weights.wk, pf),
      fx::FixedTensor::from_float(weights.wv, pf), rel, ln_gamma, ln_beta, point_.heads,
      point_.tokens(), point_.scheme.feature,
      1.0f / std::sqrt(static_cast<float>(point_.head_dim())));
}

std::int64_t MhsaIpCore::dma_bytes_per_image() const {
  return weight_dma_bytes() + io_dma_bytes_per_image();
}

std::int64_t MhsaIpCore::weight_float_bytes() const {
  const std::int64_t d = point_.dim;
  std::int64_t words = 3 * d * d;      // Wq, Wk, Wv (reloaded into the shared buffer)
  if (config_.pos == nn::PosEncodingKind::kRelative2d) {
    words += point_.heads * (point_.height + point_.width) * point_.head_dim();
  }
  if (config_.layer_norm_out) words += 2 * d;
  return words * 4;                    // 32-bit HP0 beats
}

std::int64_t MhsaIpCore::weight_dma_bytes() const {
  if (point_.wire == WeightWire::kWord32) return weight_float_bytes();
  const fx::BlockType bt = point_.wire == WeightWire::kBlockInt8 ? fx::BlockType::kInt8
                                                                 : fx::BlockType::kInt4;
  const index_t bs = point_.wire_block;
  const std::int64_t d = point_.dim;
  std::int64_t bytes = 3 * fx::BlockQuantTensor::payload_bytes_for(d * d, bt, bs);
  if (config_.pos == nn::PosEncodingKind::kRelative2d) {
    const index_t dh = point_.head_dim();
    bytes += fx::BlockQuantTensor::payload_bytes_for(point_.heads * point_.height * dh, bt, bs);
    bytes += fx::BlockQuantTensor::payload_bytes_for(point_.heads * point_.width * dh, bt, bs);
  }
  // LayerNorm gain/bias ride the wire at full width (see WeightWire).
  if (config_.layer_norm_out) bytes += 2 * d * 4;
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

// The IP computes Q, K and V sequentially through one shared weight buffer
// (Sec. V-B2); the host runs them as one product over [Wq|Wk|Wv], which
// rounds every element exactly as three products would.
fx::FixedTensor MhsaIpCore::run_fixed_tokens(const fx::FixedTensor& x) const {
  if (float_) {
    throw std::logic_error("MhsaIpCore::run_fixed_tokens: " + point_.to_string() +
                           " is a float32 core, with no fixed datapath");
  }
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
  const index_t b = lead ? x.dim(0) : 1;
  Tensor out;
  if (float_) {
    const nn::InferenceScope inference(*float_);
    out = float_->forward(lead ? x : x.reshape(nt::Shape{1, point_.dim, point_.height,
                                                         point_.width}));
    out.reshape_inplace(x.shape());
  } else {
    out = Tensor(x.shape());
    fixed_.run_maps(x.data(), b, out.data());
  }
  // Latency: one IP invocation per image. With batch-resident weights the
  // weight share of the streaming stage is paid once per run(), not per image.
  CycleBreakdown one = cycle_model_.estimate(point_, config_.layer_norm_out);
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
