// ScratchArena: thread-local, grow-only workspace for kernel scratch buffers.
//
// The compute kernels (GEMM B panels, the backward convs' columns) need large
// temporary buffers on every call. Allocating them from the heap per call puts
// malloc/free on the hot path of every training step and serve request; the
// arena instead bump-allocates from chunks that are kept for the lifetime of
// the thread, so steady-state kernel execution performs zero heap allocations.
//
// Usage is strictly scoped (LIFO):
//
//   auto& arena = ScratchArena::local();
//   ScratchArena::Scope scope(arena);
//   float* panel = arena.alloc<float>(kc * nc);
//   ...                       // panel valid until `scope` is destroyed
//
// Scopes nest: a kernel that calls another kernel (conv2d -> gemm) simply
// opens an inner scope. Allocations never move — growth appends a new chunk —
// so pointers handed out stay valid until their scope closes. When the
// outermost scope closes, fragmented chunks are coalesced into one chunk
// sized to the high-water mark, so the arena converges to a single reusable
// block after the first few calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nodetr::tensor {

class ScratchArena {
 public:
  ScratchArena() = default;
  ~ScratchArena();

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// RAII marker: rewinds the arena to its construction point on destruction.
  class Scope {
   public:
    explicit Scope(ScratchArena& arena)
        : arena_(arena), chunk_(arena.current_chunk_), offset_(arena.offset_) {
      ++arena_.depth_;
    }
    ~Scope() { arena_.rewind(chunk_, offset_); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScratchArena& arena_;
    std::size_t chunk_;
    std::size_t offset_;
  };

  /// 64-byte-aligned uninitialized storage for `count` elements of T.
  /// Valid until the innermost open Scope closes. T must be trivial.
  ///
  /// The 64-byte alignment is a contract, not an accident: every allocation
  /// size is rounded up to a cache line and every chunk base is allocated
  /// with std::align_val_t{64}, so consecutive allocations all start on a
  /// cache line. The SIMD GEMM microkernels' packed B panels rely on this
  /// for split-free vector loads from any call site.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  /// Total bytes owned across chunks (capacity, not live bytes).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Largest number of live bytes ever observed.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// Arena of the calling thread (pool workers each get their own).
  static ScratchArena& local();

 private:
  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
  };

  [[nodiscard]] void* allocate(std::size_t bytes);
  void rewind(std::size_t chunk, std::size_t offset);
  void add_chunk(std::size_t min_size);
  [[nodiscard]] std::size_t live_bytes() const;

  std::vector<Chunk> chunks_;
  std::size_t current_chunk_ = 0;  ///< index of the chunk being bumped
  std::size_t offset_ = 0;         ///< bump offset within the current chunk
  std::size_t capacity_ = 0;
  std::size_t high_water_ = 0;
  int depth_ = 0;  ///< open scopes; coalescing only happens at depth 0
};

}  // namespace nodetr::tensor
