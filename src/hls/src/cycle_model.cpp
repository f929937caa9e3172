#include "nodetr/hls/cycle_model.hpp"

#include <cmath>

#include "nodetr/nn/attention.hpp"

namespace nodetr::hls {

const char* to_string(WeightWire wire) {
  switch (wire) {
    case WeightWire::kWord32: return "word32";
    case WeightWire::kBlockInt8: return "block_int8";
    case WeightWire::kBlockInt4: return "block_int4";
  }
  return "?";
}

std::string MhsaDesignPoint::to_string() const {
  std::string s = std::to_string(dim) + "ch, " + std::to_string(height) + "x" +
                  std::to_string(width) + " (";
  s += (dtype == DataType::kFloat32) ? "floating point" : "fixed point " + scheme.to_string();
  s += buffers == BufferPlan::kNaive7 ? ", naive buffers" : ", shared buffer";
  if (wire != WeightWire::kWord32) {
    s += std::string(", ") + nodetr::hls::to_string(wire) + "/" + std::to_string(wire_block) +
         " weight wire";
  }
  s += ")";
  return s;
}

MhsaDesignPoint MhsaDesignPoint::botnet_512(DataType dtype, BufferPlan buffers) {
  MhsaDesignPoint p;
  p.dim = 512;
  p.height = p.width = 3;
  p.heads = 4;
  p.dtype = dtype;
  p.buffers = buffers;
  return p;
}

MhsaDesignPoint MhsaDesignPoint::proposed_64(DataType dtype) {
  MhsaDesignPoint p;
  p.dim = 64;
  p.height = p.width = 6;
  p.heads = 4;
  p.dtype = dtype;
  return p;
}

MhsaDesignPoint MhsaDesignPoint::from_config(const nodetr::nn::MhsaConfig& config,
                                             DataType dtype, fx::QuantizationScheme scheme) {
  MhsaDesignPoint p;
  p.dim = config.dim;
  p.height = config.height;
  p.width = config.width;
  p.heads = config.heads;
  p.dtype = dtype;
  p.scheme = scheme;
  return p;
}

namespace {

// Per-operation cycle costs calibrated against the paper's HLS report at the
// (512, 3x3) point (see header table). The projection loop is not pipelined
// in the "original" design (full fixed-point MAC latency every iteration);
// the attention-side loops are partially pipelined, hence the lower
// per-MAC costs. ReLU is elementwise.
constexpr double kProjCyclesPerMac = 40158722.0 / (9 * 512.0 * 512.0);       // 17.02
constexpr double kQrCyclesPerMac = 74132.0 / (4 * 9 * 9.0 * 128.0);          // 1.787
constexpr double kQkCyclesPerMac = 78740.0 / (4 * 9 * 9.0 * 128.0);          // 1.899
constexpr double kReluCyclesPerElem = 1701.0 / (4 * 9 * 9.0);                // 5.25
constexpr double kAvCyclesPerMac = 370696.0 / (4 * 9 * 9.0 * 128.0);         // 8.938
// Pipeline fill + burst setup overhead of the unrolled projection engine,
// calibrated so the parallelized projection matches the paper's 316,009.
constexpr double kParallelOverhead = 2267.0;
// Weight/feature streaming cycles per 32-bit word, calibrated to Table III's
// unlisted 864,658-cycle remainder at (512, 3x3).
constexpr double kStreamCyclesPerWord = 864658.0 / (3 * 512.0 * 512 + 2 * 9.0 * 512);
// The floating-point datapath's MACs have roughly twice the initiation
// interval of the wide fixed-point MACs — calibrated to Table IX, where the
// float IP saves 10.84 ms less than the fixed IP over the same workload
// (24.21 vs 13.37 ms end-to-end).
constexpr double kFloatMacFactor = 2.0;
// LayerNorm: two reduction passes plus a normalization pass per token row.
constexpr double kLnCyclesPerElem = 3.0;
constexpr double kLnCyclesPerRow = 40.0;  // mean/var finalize + rsqrt

/// Weight-wire compression: 32-bit words a quantized wire moves per logical
/// weight word (1.0 for word32; int8 at block 32 moves ~0.28 words/word).
double wire_words_per_weight(const MhsaDesignPoint& point) {
  const double bs = static_cast<double>(point.wire_block);
  switch (point.wire) {
    case WeightWire::kBlockInt8: return (bs + 4.0) / (4.0 * bs);
    case WeightWire::kBlockInt4: return (bs / 2.0 + 4.0) / (4.0 * bs);
    case WeightWire::kWord32: break;
  }
  return 1.0;
}

}  // namespace

std::int64_t CycleModel::weight_stream_cycles(const MhsaDesignPoint& point) const {
  const double d = static_cast<double>(point.dim);
  return static_cast<std::int64_t>(3.0 * d * d * wire_words_per_weight(point) *
                                   kStreamCyclesPerWord);
}

CycleBreakdown CycleModel::estimate(const MhsaDesignPoint& point, bool include_layer_norm) const {
  const double n = static_cast<double>(point.tokens());
  const double d = static_cast<double>(point.dim);
  const double dh = static_cast<double>(point.head_dim());
  const double heads = static_cast<double>(point.heads);

  const double proj_macs = n * d * d;  // one projection
  const double attn_macs = heads * n * n * dh;
  const double attn_elems = heads * n * n;
  const double f = point.dtype == DataType::kFloat32 ? kFloatMacFactor : 1.0;

  CycleBreakdown b;
  const index_t unroll = std::max<index_t>(point.parallel.unroll, 1);
  if (unroll > 1) {
    b.projection_each = static_cast<std::int64_t>(
        std::ceil(proj_macs / static_cast<double>(unroll)) * kProjCyclesPerMac * f +
        kParallelOverhead);
  } else {
    b.projection_each = static_cast<std::int64_t>(proj_macs * kProjCyclesPerMac * f);
  }
  // Feature maps always move at full width; the weight share rides the wire.
  b.streaming = static_cast<std::int64_t>(
      (3.0 * d * d * wire_words_per_weight(point) + 2.0 * n * d) * kStreamCyclesPerWord);
  b.qr = static_cast<std::int64_t>(attn_macs * kQrCyclesPerMac * f);
  b.qk = static_cast<std::int64_t>(attn_macs * kQkCyclesPerMac * f);
  b.relu = static_cast<std::int64_t>(attn_elems * kReluCyclesPerElem);
  b.av = static_cast<std::int64_t>(attn_macs * kAvCyclesPerMac * f);
  if (include_layer_norm) {
    b.layer_norm = static_cast<std::int64_t>(n * d * kLnCyclesPerElem + n * kLnCyclesPerRow);
  }
  return b;
}

}  // namespace nodetr::hls
