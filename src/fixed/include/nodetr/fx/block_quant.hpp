// Block-quantized tensors: the whole-model int8/int4 weight format used for
// checkpoint storage, simulated DDR->PL weight streaming, and the quantized
// CPU serving backend (ROADMAP item: block-quantized weights end-to-end).
//
// The layout follows the ggml Q8_0/Q4_0 idiom: values are grouped into
// fixed-size blocks (32 or 64), each block carries one float scale chosen as
// absmax/qmax, and the payload stores the per-value integer codes — one
// int8 per value, or two int4 codes packed per byte (biased nibbles, code =
// q + 8, so the packed bytes need no sign extension on unpack). Quantization
// rounds half away from zero and saturates symmetrically to +/- qmax,
// matching fx::quantize's semantics.
//
// Wire/storage cost per block of S values (+4 bytes for the scale):
//   int8:  S bytes      -> ~3.56x smaller than float32 at S=32
//   int4:  (S+1)/2 bytes -> ~6.4x smaller than float32 at S=32
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "nodetr/tensor/tensor.hpp"

namespace nodetr::fx {

using nodetr::tensor::index_t;
using nodetr::tensor::Shape;
using nodetr::tensor::Tensor;

/// Payload element type of one block-quantized tensor.
enum class BlockType : std::uint8_t {
  kInt8 = 0,  ///< one signed byte per value, codes in [-127, 127]
  kInt4 = 1,  ///< two biased nibbles per byte, codes in [-7, 7]
};

[[nodiscard]] const char* to_string(BlockType type);

class BlockQuantTensor {
 public:
  BlockQuantTensor() = default;

  /// Quantize a float tensor: per-block absmax scales, round half away from
  /// zero, symmetric saturation. `block_size` must be >= 1 (32 and 64 are
  /// the supported wire sizes); a trailing partial block is zero-padded in
  /// the payload and ignored on dequantize.
  [[nodiscard]] static BlockQuantTensor quantize(const Tensor& t, BlockType type,
                                                 index_t block_size = 32);

  /// Dequantize back to float (value = code * scale).
  [[nodiscard]] Tensor dequantize() const;

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] BlockType type() const { return type_; }
  [[nodiscard]] index_t block_size() const { return block_size_; }
  [[nodiscard]] index_t numel() const { return numel_; }
  [[nodiscard]] bool empty() const { return numel_ == 0; }
  [[nodiscard]] index_t blocks() const { return static_cast<index_t>(scales_.size()); }

  [[nodiscard]] const std::vector<float>& scales() const { return scales_; }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return data_; }

  /// Decode one element (block scale x integer code).
  [[nodiscard]] float at(index_t i) const;

  /// Bytes actually streamed/stored for this tensor: scales + packed codes.
  [[nodiscard]] std::int64_t payload_bytes() const {
    return static_cast<std::int64_t>(scales_.size()) * 4 +
           static_cast<std::int64_t>(data_.size());
  }
  /// What the same tensor costs as float32 words (the pre-quantization wire).
  [[nodiscard]] std::int64_t float_bytes() const { return std::int64_t{numel_} * 4; }
  /// float_bytes / payload_bytes; 1.0 for an empty tensor.
  [[nodiscard]] double compression_ratio() const;

  /// Payload bytes (scales + codes) for a tensor of `numel` values without
  /// materializing it — the DMA accounting the rt layer needs.
  [[nodiscard]] static std::int64_t payload_bytes_for(index_t numel, BlockType type,
                                                      index_t block_size);

  /// Serialize as one "NBQ1" record: header, dims, scales, codes, and a
  /// trailing FNV-1a checksum over the payload so a corrupted block is
  /// rejected at read time instead of silently decoding garbage weights.
  void write(std::ostream& os) const;
  /// Read a record written by write(). Throws std::runtime_error on a bad
  /// magic/type/geometry, non-finite scale, truncation, or checksum mismatch.
  [[nodiscard]] static BlockQuantTensor read(std::istream& is);

 private:
  Shape shape_{std::initializer_list<index_t>{0}};
  BlockType type_ = BlockType::kInt8;
  index_t block_size_ = 32;
  index_t numel_ = 0;
  std::vector<float> scales_;      ///< one per block
  std::vector<std::uint8_t> data_; ///< int8 codes, or packed int4 nibble pairs
};

/// Free-function spelling of the round trip.
[[nodiscard]] BlockQuantTensor block_quantize(const Tensor& t, BlockType type,
                                              index_t block_size = 32);
[[nodiscard]] Tensor block_dequantize(const BlockQuantTensor& q);
/// Fake-quantization: degrade a float tensor through the block format (the
/// accuracy-sweep primitive; weights stay float downstream).
[[nodiscard]] Tensor block_roundtrip(const Tensor& t, BlockType type, index_t block_size = 32);

// ---- per-layer mixed precision -------------------------------------------------

/// Precision assigned to one parameter tensor by the mixed-precision policy.
enum class LayerPrecision : std::uint8_t {
  kFloat32 = 0,  ///< keep full precision (sensitive layers)
  kInt8 = 1,
  kInt4 = 2,
};

/// Table-8-style per-layer precision selection: the first rule whose
/// substring appears in the parameter's name wins; otherwise `fallback`.
/// The empty-rules default reproduces uniform quantization.
struct MixedPrecisionPolicy {
  LayerPrecision fallback = LayerPrecision::kInt8;
  index_t block_size = 32;
  std::vector<std::pair<std::string, LayerPrecision>> rules;

  [[nodiscard]] LayerPrecision precision_for(const std::string& name) const;
  [[nodiscard]] static MixedPrecisionPolicy uniform(LayerPrecision p, index_t block_size = 32);
};

}  // namespace nodetr::fx
