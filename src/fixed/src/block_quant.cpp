#include "nodetr/fx/block_quant.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace nodetr::fx {

namespace {

constexpr std::uint32_t kBlockMagic = 0x3151424e;  // "NBQ1"
constexpr int kInt8Max = 127;
constexpr int kInt4Max = 7;
constexpr int kInt4Bias = 8;  ///< packed nibble = code + 8, range [1, 15]

/// Round half away from zero and clamp to +/- qmax (symmetric, negation-safe).
int quantize_code(float v, float inv_scale, int qmax) {
  const float scaled = v * inv_scale;
  const float rounded = scaled >= 0.0f ? std::floor(scaled + 0.5f) : std::ceil(scaled - 0.5f);
  return static_cast<int>(std::fmin(std::fmax(rounded, static_cast<float>(-qmax)),
                                    static_cast<float>(qmax)));
}

std::int64_t data_bytes_for(index_t numel, BlockType type, index_t block_size) {
  if (numel == 0) return 0;
  const std::int64_t blocks = (numel + block_size - 1) / block_size;
  // Full blocks are always allocated; a partial tail is zero-padded so the
  // wire format is a function of (numel, type, block_size) alone.
  return type == BlockType::kInt8 ? blocks * block_size : blocks * ((block_size + 1) / 2);
}

/// FNV-1a over the scale and code payload — cheap, deterministic, and enough
/// to catch the single-bit/byte corruptions the checkpoint corpus injects.
std::uint32_t payload_checksum(const std::vector<float>& scales,
                               const std::vector<std::uint8_t>& data) {
  std::uint32_t h = 0x811c9dc5u;
  auto mix = [&h](const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x01000193u;
    }
  };
  mix(reinterpret_cast<const std::uint8_t*>(scales.data()), scales.size() * sizeof(float));
  mix(data.data(), data.size());
  return h;
}

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void read_pod(std::istream& is, T& v, const char* what) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error(std::string("BlockQuantTensor::read: truncated ") + what);
}

}  // namespace

const char* to_string(BlockType type) {
  switch (type) {
    case BlockType::kInt8: return "int8";
    case BlockType::kInt4: return "int4";
  }
  return "?";
}

BlockQuantTensor BlockQuantTensor::quantize(const Tensor& t, BlockType type,
                                            index_t block_size) {
  if (block_size < 1) {
    throw std::invalid_argument("BlockQuantTensor::quantize: block_size must be >= 1");
  }
  BlockQuantTensor q;
  q.shape_ = t.shape();
  q.type_ = type;
  q.block_size_ = block_size;
  q.numel_ = t.numel();
  if (q.numel_ == 0) return q;
  const index_t blocks = (q.numel_ + block_size - 1) / block_size;
  const int qmax = type == BlockType::kInt8 ? kInt8Max : kInt4Max;
  q.scales_.resize(static_cast<std::size_t>(blocks));
  q.data_.assign(static_cast<std::size_t>(data_bytes_for(q.numel_, type, block_size)), 0);
  const float* src = t.data();
  const index_t packed_block = (block_size + 1) / 2;
  for (index_t b = 0; b < blocks; ++b) {
    const index_t begin = b * block_size;
    const index_t end = std::min(begin + block_size, q.numel_);
    float absmax = 0.0f;
    for (index_t i = begin; i < end; ++i) absmax = std::fmax(absmax, std::fabs(src[i]));
    const float scale = absmax / static_cast<float>(qmax);
    q.scales_[static_cast<std::size_t>(b)] = scale;
    if (scale == 0.0f) continue;  // all-zero block: codes stay 0
    const float inv = 1.0f / scale;
    if (type == BlockType::kInt8) {
      std::uint8_t* dst = q.data_.data() + b * block_size;
      for (index_t i = begin; i < end; ++i) {
        dst[i - begin] = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(quantize_code(src[i], inv, qmax)));
      }
    } else {
      // Biased nibbles: even index -> low nibble, odd index -> high nibble.
      std::uint8_t* dst = q.data_.data() + b * packed_block;
      for (index_t i = begin; i < end; ++i) {
        const auto code = static_cast<std::uint8_t>(quantize_code(src[i], inv, qmax) + kInt4Bias);
        const index_t off = i - begin;
        dst[off / 2] |= static_cast<std::uint8_t>(off % 2 == 0 ? code : code << 4);
      }
    }
  }
  return q;
}

Tensor BlockQuantTensor::dequantize() const {
  Tensor t(shape_);
  float* dst = t.data();
  for (index_t i = 0; i < numel_; ++i) dst[i] = at(i);
  return t;
}

float BlockQuantTensor::at(index_t i) const {
  const index_t b = i / block_size_;
  const float scale = scales_[static_cast<std::size_t>(b)];
  if (type_ == BlockType::kInt8) {
    return scale * static_cast<float>(static_cast<std::int8_t>(data_[b * block_size_ + i % block_size_]));
  }
  const index_t off = i % block_size_;
  const std::uint8_t byte = data_[b * ((block_size_ + 1) / 2) + off / 2];
  const int code = static_cast<int>(off % 2 == 0 ? byte & 0x0f : byte >> 4) - kInt4Bias;
  return scale * static_cast<float>(code);
}

double BlockQuantTensor::compression_ratio() const {
  const std::int64_t p = payload_bytes();
  return p == 0 ? 1.0 : static_cast<double>(float_bytes()) / static_cast<double>(p);
}

std::int64_t BlockQuantTensor::payload_bytes_for(index_t numel, BlockType type,
                                                 index_t block_size) {
  if (numel == 0) return 0;
  const std::int64_t blocks = (numel + block_size - 1) / block_size;
  return blocks * 4 + data_bytes_for(numel, type, block_size);
}

void BlockQuantTensor::write(std::ostream& os) const {
  write_pod(os, kBlockMagic);
  write_pod(os, static_cast<std::uint8_t>(type_));
  write_pod(os, std::uint8_t{0});  // reserved
  write_pod(os, static_cast<std::uint16_t>(block_size_));
  const auto rank = static_cast<std::uint32_t>(shape_.rank());
  write_pod(os, rank);
  for (index_t d = 0; d < shape_.rank(); ++d) write_pod(os, std::int64_t{shape_.dim(d)});
  os.write(reinterpret_cast<const char*>(scales_.data()),
           static_cast<std::streamsize>(scales_.size() * sizeof(float)));
  os.write(reinterpret_cast<const char*>(data_.data()),
           static_cast<std::streamsize>(data_.size()));
  write_pod(os, payload_checksum(scales_, data_));
  if (!os) throw std::runtime_error("BlockQuantTensor::write: stream failure");
}

BlockQuantTensor BlockQuantTensor::read(std::istream& is) {
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (!is || magic != kBlockMagic) throw std::runtime_error("BlockQuantTensor::read: bad magic");
  std::uint8_t type = 0, reserved = 0;
  std::uint16_t block_size = 0;
  std::uint32_t rank = 0;
  read_pod(is, type, "header");
  read_pod(is, reserved, "header");
  read_pod(is, block_size, "header");
  read_pod(is, rank, "header");
  if (type > static_cast<std::uint8_t>(BlockType::kInt4)) {
    throw std::runtime_error("BlockQuantTensor::read: unknown block type " + std::to_string(type));
  }
  if (block_size < 1) throw std::runtime_error("BlockQuantTensor::read: bad block size");
  if (rank > 8) throw std::runtime_error("BlockQuantTensor::read: bad rank");
  // Validate geometry before allocating: a corrupt header must raise a typed
  // error, never a wild allocation (same contract as tensor::read_tensor).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<index_t> dims(rank);
  std::int64_t numel = 1;
  for (auto& d : dims) {
    std::int64_t e = 0;
    read_pod(is, e, "extent");
    if (e < 0) throw std::runtime_error("BlockQuantTensor::read: bad extent");
    if (e > 0 && numel > kMax / e) throw std::runtime_error("BlockQuantTensor::read: extent overflow");
    numel *= e;
    d = e;
  }
  BlockQuantTensor q;
  q.shape_ = Shape(dims);
  q.type_ = static_cast<BlockType>(type);
  q.block_size_ = block_size;
  q.numel_ = static_cast<index_t>(numel);
  const index_t blocks = numel == 0 ? 0 : (q.numel_ + q.block_size_ - 1) / q.block_size_;
  q.scales_.resize(static_cast<std::size_t>(blocks));
  q.data_.resize(static_cast<std::size_t>(data_bytes_for(q.numel_, q.type_, q.block_size_)));
  is.read(reinterpret_cast<char*>(q.scales_.data()),
          static_cast<std::streamsize>(q.scales_.size() * sizeof(float)));
  is.read(reinterpret_cast<char*>(q.data_.data()), static_cast<std::streamsize>(q.data_.size()));
  if (!is) throw std::runtime_error("BlockQuantTensor::read: truncated payload");
  std::uint32_t checksum = 0;
  read_pod(is, checksum, "checksum");
  if (checksum != payload_checksum(q.scales_, q.data_)) {
    throw std::runtime_error("BlockQuantTensor::read: payload checksum mismatch (corrupt block)");
  }
  for (float s : q.scales_) {
    if (!std::isfinite(s)) {
      throw std::runtime_error("BlockQuantTensor::read: non-finite block scale");
    }
  }
  return q;
}

BlockQuantTensor block_quantize(const Tensor& t, BlockType type, index_t block_size) {
  return BlockQuantTensor::quantize(t, type, block_size);
}

Tensor block_dequantize(const BlockQuantTensor& q) { return q.dequantize(); }

Tensor block_roundtrip(const Tensor& t, BlockType type, index_t block_size) {
  return BlockQuantTensor::quantize(t, type, block_size).dequantize();
}

LayerPrecision MixedPrecisionPolicy::precision_for(const std::string& name) const {
  for (const auto& [needle, precision] : rules) {
    if (name.find(needle) != std::string::npos) return precision;
  }
  return fallback;
}

MixedPrecisionPolicy MixedPrecisionPolicy::uniform(LayerPrecision p, index_t block_size) {
  MixedPrecisionPolicy policy;
  policy.fallback = p;
  policy.block_size = block_size;
  return policy;
}

}  // namespace nodetr::fx
