// SIMD microkernel registry for the blocked GEMM.
//
// Each entry is one MR x NR register-tiled inner kernel that reads A in place
// and B by a row stride, from a packed micro-panel or in place. Besides the
// portable scalar 4x8 kernel (the one the compiler auto-vectorizes at -O3),
// explicit AVX2/FMA kernels in two shapes are compiled with per-function
// target attributes, so they exist — and are runtime-dispatched via CPUID —
// even in the default build without `-DNODETR_NATIVE=ON`. On aarch64 a NEON
// kernel takes their place.
//
// Contract every kernel obeys (NODETR_GEMM_CONFIG may pin any of them):
//   - A is read where it lies, by strides, as BLIS does: element (i, p) of
//     the tile's block at a[i * rs_a + p * cs_a]. A plain view passes
//     (ld, 1) and a transposed view (1, ld), so the weights are never
//     copied. Only rows i < mr are read: in a bottom-edge tile (mr < mr_max)
//     the rows past mr re-read row mr - 1, and their sums are never stored,
//     so nothing outside A is touched.
//   - B is read by rows: element (p, j) of the tile's k x nr_max block at
//     b[p * ldb + j]. All nr_max columns of each of the kc rows are read, so
//     they must exist. A packed micro-panel passes ldb = nr_max, its columns
//     past nr zero-padded; panels come from ScratchArena, 64-byte aligned. A
//     plain B whose tile spans a full nr_max columns is read where it lies,
//     with ldb its row stride and any alignment.
//   - Each output element's k-products are accumulated in ascending-k order
//     in a single dependency chain (one FMA chain per element for the vector
//     kernels). `first` starts the chain from zero; otherwise it starts from
//     the value in C, so a k split into panels continues one chain and
//     rounds nothing extra. The result overwrites C either way. A partial
//     tile (mr < mr_max or nr < nr_max) runs the same arithmetic over the
//     clamped rows and the zero-padded panel, reading and writing only the
//     live mr x nr region of C.
//     Together these make float results bitwise identical across blocking,
//     batch sizes, thread counts and the FMA kernels' tile shapes. Results
//     differ between the FMA kernels and `scalar_4x8`, which rounds each
//     product before adding it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "nodetr/tensor/shape.hpp"

namespace nodetr::tensor::simd {

/// One MR x NR inner kernel. `kc` is the depth, `a` the tile's first A
/// element with row and column strides `rs_a`/`cs_a`, `b` the tile's first B
/// element with row stride `ldb` (a packed panel's is the kernel's nr), `c`
/// the top-left of the output tile with row stride `ldc`, `mr`/`nr` the live
/// tile extents (1 <= mr, nr <= the kernel's shape).
using MicroKernelFn = void (*)(int kc, const float* a, index_t rs_a, index_t cs_a,
                               const float* b, index_t ldb, float* c, index_t ldc, index_t mr,
                               index_t nr, bool first);

struct MicroKernel {
  const char* name;  ///< stable id, e.g. "scalar_4x8", "avx2_6x16"
  int id;            ///< stable numeric id for gauges / JSON (strings don't fit)
  index_t mr, nr;    ///< register-tile shape; nr is a multiple of 8 on x86
  MicroKernelFn fn;
};

/// Kernels runnable on this host, best-first; the portable scalar kernel is
/// always present and always last. The list is probed once (CPUID on x86)
/// and cached for the process lifetime.
[[nodiscard]] const std::vector<MicroKernel>& available_kernels();

/// Lookup by name among *available* kernels; nullptr when unknown or not
/// runnable on this host (an AVX2 spec pinned on a pre-AVX2 box).
[[nodiscard]] const MicroKernel* find_kernel(std::string_view name);

/// The portable fallback (also the float reference the differential tests
/// compare every other variant against).
[[nodiscard]] const MicroKernel& scalar_kernel();

/// Human-readable ISA summary for startup banners, e.g. "avx2+fma" or
/// "portable-scalar".
[[nodiscard]] std::string cpu_features();

}  // namespace nodetr::tensor::simd
