// MHSA accelerator design points (Sec. V): the knobs Tables I/II/III/VII
// sweep — data type, buffer plan, array partitioning / loop unrolling, and
// the MHSA geometry itself.
#pragma once

#include <string>

#include "nodetr/fx/format.hpp"
#include "nodetr/tensor/shape.hpp"

namespace nodetr::nn {
struct MhsaConfig;
}  // namespace nodetr::nn

namespace nodetr::hls {

using nodetr::tensor::index_t;

enum class DataType {
  kFloat32,  ///< single-precision floating point
  kFixed,    ///< fixed point per the attached QuantizationScheme
};

enum class BufferPlan {
  kNaive7,   ///< Wq, Wk, Wv, X, Q, K, V on individual buffers (Sec. V-B2)
  kShared5,  ///< one shared weight buffer reloaded for Wq/Wk/Wv
};

/// How long DMA'd weights stay resident in the IP's on-chip buffers.
enum class WeightResidency {
  kStreamPerImage,   ///< weights re-streamed for every image (Table III calibration)
  kBatchResident,    ///< weights streamed once per START and reused across the
                     ///< whole programmed batch (the serving path)
};

/// Wire format of the DDR-resident weight images the DMA streams into the
/// PL. Block formats carry per-block float scales (fx::BlockQuantTensor);
/// the IP dequantizes into its on-chip parameter buffers as the beats land,
/// so a quantized wire degrades the weights exactly once, at rest. The
/// LayerNorm gain/bias (2·D values) stay at 32-bit words on every wire —
/// they are tiny and the mixed-precision escape hatch keeps them exact.
enum class WeightWire {
  kWord32,     ///< full-width 32-bit words (the pre-quantization wire)
  kBlockInt8,  ///< int8 codes + per-block scales (~3.6x fewer weight bytes)
  kBlockInt4,  ///< packed int4 codes + per-block scales (~6.4x fewer)
};

[[nodiscard]] const char* to_string(WeightWire wire);

struct ParallelPlan {
  index_t partition = 64;  ///< sub-buffers for X and W (array partitioning)
  index_t unroll = 128;    ///< innermost-loop unroll factor
  [[nodiscard]] bool parallel() const { return unroll > 1 || partition > 1; }
  static ParallelPlan sequential() { return {.partition = 1, .unroll = 1}; }
  /// The paper's chosen configuration (Sec. V-B3).
  static ParallelPlan paper() { return {.partition = 64, .unroll = 128}; }
};

/// Geometry + implementation choices for one synthesized MHSA IP core.
struct MhsaDesignPoint {
  index_t dim = 512;   ///< D: channels of the attended feature map
  index_t height = 3;
  index_t width = 3;
  index_t heads = 4;
  DataType dtype = DataType::kFixed;
  fx::QuantizationScheme scheme = fx::scheme_32_24();
  BufferPlan buffers = BufferPlan::kShared5;
  ParallelPlan parallel = ParallelPlan::paper();
  WeightResidency residency = WeightResidency::kStreamPerImage;
  WeightWire wire = WeightWire::kWord32;
  index_t wire_block = 32;  ///< block size of the quantized wire (32 or 64)

  [[nodiscard]] index_t tokens() const { return height * width; }
  [[nodiscard]] index_t head_dim() const { return dim / heads; }
  [[nodiscard]] std::string to_string() const;

  /// The two design points the paper synthesizes (Table VII): BoTNet's
  /// (512ch, 3x3) and the proposed model's (64ch, 6x6).
  static MhsaDesignPoint botnet_512(DataType dtype, BufferPlan buffers = BufferPlan::kShared5);
  static MhsaDesignPoint proposed_64(DataType dtype);
  /// The IP for an nn MHSA layer: its geometry (dim, H x W, heads) on
  /// `dtype` with `scheme`; every other field keeps its default.
  static MhsaDesignPoint from_config(const nodetr::nn::MhsaConfig& config, DataType dtype,
                                     fx::QuantizationScheme scheme = fx::scheme_32_24());
};

}  // namespace nodetr::hls
