#include "nodetr/tensor/arena.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

#include "nodetr/obs/obs.hpp"

namespace nodetr::tensor {

namespace obs = nodetr::obs;

namespace {
constexpr std::size_t kAlign = 64;  // cache-line alignment for packed panels
constexpr std::size_t kMinChunk = std::size_t{1} << 16;

std::size_t round_up(std::size_t v, std::size_t a) { return (v + a - 1) / a * a; }
}  // namespace

#ifdef NDEBUG
#define NODETR_ARENA_ASSERT_ALIGNED(p) (void)(p)
#else
#define NODETR_ARENA_ASSERT_ALIGNED(p) \
  (void)(reinterpret_cast<std::uintptr_t>(p) % kAlign == 0 ? 0 : (std::abort(), 0))
#endif

ScratchArena::~ScratchArena() {
  for (auto& c : chunks_) ::operator delete[](c.data, std::align_val_t{kAlign});
}

std::size_t ScratchArena::live_bytes() const {
  std::size_t live = offset_;
  for (std::size_t i = 0; i < current_chunk_; ++i) live += chunks_[i].size;
  return live;
}

void ScratchArena::add_chunk(std::size_t min_size) {
  // Doubling growth keeps the chunk count logarithmic in the workload size;
  // the outermost rewind coalesces back to one chunk anyway.
  const std::size_t size = std::max({min_size, capacity_, kMinChunk});
  chunks_.push_back({static_cast<std::byte*>(::operator new[](size, std::align_val_t{kAlign})),
                     size});
  capacity_ += size;
  static auto& grows = obs::Registry::instance().counter("tensor.arena.grows");
  grows.add();
  obs::Registry::instance().gauge("tensor.arena.bytes").set(static_cast<double>(capacity_));
}

void* ScratchArena::allocate(std::size_t bytes) {
  bytes = round_up(std::max<std::size_t>(bytes, 1), kAlign);
  // Advance to (or create) a chunk with room. Tail space skipped on the way
  // is wasted only until the next rewind.
  for (;;) {
    if (current_chunk_ < chunks_.size() &&
        offset_ + bytes <= chunks_[current_chunk_].size) {
      break;
    }
    if (current_chunk_ + 1 < chunks_.size()) {
      ++current_chunk_;
      offset_ = 0;
      continue;
    }
    add_chunk(bytes);
    current_chunk_ = chunks_.size() - 1;
    offset_ = 0;
  }
  void* p = chunks_[current_chunk_].data + offset_;
  offset_ += bytes;
  high_water_ = std::max(high_water_, live_bytes());
  // Documented contract (arena.hpp): every pointer handed out is cache-line
  // aligned — the SIMD GEMM's packed B panels depend on it.
  NODETR_ARENA_ASSERT_ALIGNED(p);
  return p;
}

void ScratchArena::rewind(std::size_t chunk, std::size_t offset) {
  current_chunk_ = chunk;
  offset_ = offset;
  --depth_;
  if (depth_ == 0 && chunks_.size() > 1) {
    // Top-level: replace the fragmented chunk list with one block sized to
    // the high-water mark so future scopes never grow again.
    for (auto& c : chunks_) ::operator delete[](c.data, std::align_val_t{kAlign});
    chunks_.clear();
    capacity_ = 0;
    current_chunk_ = 0;
    offset_ = 0;
    add_chunk(round_up(high_water_, kAlign));
  }
}

ScratchArena& ScratchArena::local() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace nodetr::tensor
