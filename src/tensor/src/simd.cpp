#include "nodetr/tensor/simd.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace nodetr::tensor::simd {

namespace {

/// Copies the live mr x nr region of a tile between C and a full-shape stack
/// buffer: in before the k loop when a partial tile continues C's chain, out
/// after it. The arithmetic happens in the accumulators, so this only moves
/// bits.
void copy_tile(const float* src, index_t src_ld, float* dst, index_t dst_ld, index_t mr,
               index_t nr) {
  for (index_t i = 0; i < mr; ++i) std::copy_n(src + i * src_ld, nr, dst + i * dst_ld);
}

/// Offsets of the tile's MR rows into A: row i at i * rs_a, and the rows
/// past a bottom-edge tile's mr at row mr - 1's, so no read leaves A.
template <int MR>
void a_row_offsets(index_t rs_a, index_t mr, index_t (&ra)[MR]) {
  for (int i = 0; i < MR; ++i) ra[i] = std::min<index_t>(i, mr - 1) * rs_a;
}

/// Portable 4x8 kernel: 32 scalar accumulators the compiler auto-vectorizes
/// at -O3. The k loop is unrolled by 4; each product lands in its accumulator
/// in ascending-k order, starting from zero or, after the first panel, from C.
void kern_scalar_4x8(int kc, const float* __restrict__ a, index_t rs_a, index_t cs_a,
                     const float* __restrict__ b, index_t ldb, float* __restrict__ c,
                     index_t ldc, index_t mr, index_t nr, bool first) {
  constexpr int kMr = 4, kNr = 8;
  float acc[kMr][kNr] = {};
  index_t ra[kMr];
  a_row_offsets(rs_a, mr, ra);
  if (!first) copy_tile(c, ldc, &acc[0][0], kNr, mr, nr);
  auto step = [&](int p) {
    const float* ap = a + p * cs_a;
    const float* bv = b + p * ldb;
    for (int i = 0; i < kMr; ++i) {
      const float av = ap[ra[i]];
      for (int j = 0; j < kNr; ++j) acc[i][j] += av * bv[j];
    }
  };
  int p = 0;
  for (; p + 4 <= kc; p += 4) {
    for (int u = 0; u < 4; ++u) step(p + u);
  }
  for (; p < kc; ++p) step(p);
  copy_tile(&acc[0][0], kNr, c, ldc, mr, nr);
}

#if defined(__x86_64__) || defined(__i386__)

// Explicit AVX2/FMA kernels, compiled with per-function target attributes so
// they exist in the default (non -march=native) build; the dispatcher only
// hands them out after __builtin_cpu_supports says the host can run them.
// One __m256 FMA chain per (row, 8-column group) keeps each output element's
// accumulation a single ascending-k dependency chain. A is broadcast from
// where it lies, one element per (row, k). B rows are loaded with
// unaligned loads: a packed panel's base is 64-byte aligned, but an odd kc
// can place later micro-panels off alignment, a B read in place has any
// alignment, and loadu on aligned data costs nothing on AVX2 hardware.
//
// Every loop over MR or NV is unrolled in full, so each acc[i][v] is a named
// register to the compiler. A loop it leaves rolled indexes `acc` at run time,
// which keeps the array in memory: the k loop then stores every accumulator
// to the stack on every step (MR * NV extra stores per k; see DESIGN.md,
// "Kernel layer", for the objdump check).
template <int MR, int NV>
__attribute__((target("avx2,fma"))) void kern_avx2(int kc, const float* __restrict__ a,
                                                   index_t rs_a, index_t cs_a,
                                                   const float* __restrict__ b, index_t ldb,
                                                   float* __restrict__ c, index_t ldc,
                                                   index_t mr, index_t nr, bool first) {
  constexpr int kNr = NV * 8;
  const bool full = mr == MR && nr == kNr;
  index_t ra[MR];
  a_row_offsets(rs_a, mr, ra);
  __m256 acc[MR][NV];
  alignas(32) float tile[MR][kNr];
  if (!first && !full) {
    std::fill_n(&tile[0][0], MR * kNr, 0.0f);
    copy_tile(c, ldc, &tile[0][0], kNr, mr, nr);
  }
  // The chain starts from zero on the first panel and from C after it.
#pragma GCC unroll 16
  for (int i = 0; i < MR; ++i)
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      acc[i][v] = first  ? _mm256_setzero_ps()
                  : full ? _mm256_loadu_ps(c + i * ldc + v * 8)
                         : _mm256_load_ps(&tile[i][v * 8]);
    }
  for (int p = 0; p < kc; ++p) {
    const float* ap = a + p * cs_a;
    __m256 bv[NV];
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(b + p * ldb + v * 8);
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(ap + ra[i]);
#pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) acc[i][v] = _mm256_fmadd_ps(av, bv[v], acc[i][v]);
    }
  }
  if (full) {
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i)
#pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) _mm256_storeu_ps(c + i * ldc + v * 8, acc[i][v]);
    return;
  }
#pragma GCC unroll 16
  for (int i = 0; i < MR; ++i)
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) _mm256_store_ps(&tile[i][v * 8], acc[i][v]);
  copy_tile(&tile[0][0], kNr, c, ldc, mr, nr);
}

bool host_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#elif defined(__aarch64__)

/// 8x8 NEON kernel: 16 q-register accumulators, one vfmaq chain per
/// (row, 4-column group).
void kern_neon_8x8(int kc, const float* __restrict__ a, index_t rs_a, index_t cs_a,
                   const float* __restrict__ b, index_t ldb, float* __restrict__ c, index_t ldc,
                   index_t mr, index_t nr, bool first) {
  constexpr int kMr = 8, kNr = 8;
  const bool full = mr == kMr && nr == kNr;
  index_t ra[kMr];
  a_row_offsets(rs_a, mr, ra);
  float32x4_t acc[kMr][2];
  alignas(16) float tile[kMr][kNr];
  if (!first && !full) {
    std::fill_n(&tile[0][0], kMr * kNr, 0.0f);
    copy_tile(c, ldc, &tile[0][0], kNr, mr, nr);
  }
  // The chain starts from zero on the first panel and from C after it.
  for (int i = 0; i < kMr; ++i) {
    if (first) {
      acc[i][0] = acc[i][1] = vdupq_n_f32(0.0f);
      continue;
    }
    const float* src = full ? c + i * ldc : &tile[i][0];
    acc[i][0] = vld1q_f32(src);
    acc[i][1] = vld1q_f32(src + 4);
  }
  for (int p = 0; p < kc; ++p) {
    const float* ap = a + p * cs_a;
    const float32x4_t b0 = vld1q_f32(b + p * ldb);
    const float32x4_t b1 = vld1q_f32(b + p * ldb + 4);
    for (int i = 0; i < kMr; ++i) {
      const float32x4_t av = vdupq_n_f32(ap[ra[i]]);
      acc[i][0] = vfmaq_f32(acc[i][0], av, b0);
      acc[i][1] = vfmaq_f32(acc[i][1], av, b1);
    }
  }
  for (int i = 0; i < kMr; ++i) {
    float* out = full ? c + i * ldc : &tile[i][0];
    vst1q_f32(out, acc[i][0]);
    vst1q_f32(out + 4, acc[i][1]);
  }
  if (!full) copy_tile(&tile[0][0], kNr, c, ldc, mr, nr);
}

#endif

std::vector<MicroKernel> build_kernel_list() {
  std::vector<MicroKernel> kernels;
#if defined(__x86_64__) || defined(__i386__)
  if (host_has_avx2_fma()) {
    // 6x16: 12 acc + 2 B + 1 A = 15 of 16 ymm. 4x16: a shallower tile for
    // short-M (attention) shapes. Id 3 was avx2_8x8 and is not reused.
    kernels.push_back({"avx2_6x16", 1, 6, 16, kern_avx2<6, 2>});
    kernels.push_back({"avx2_4x16", 2, 4, 16, kern_avx2<4, 2>});
  }
#elif defined(__aarch64__)
  kernels.push_back({"neon_8x8", 4, 8, 8, kern_neon_8x8});
#endif
  kernels.push_back({"scalar_4x8", 0, 4, 8, kern_scalar_4x8});
  return kernels;
}

}  // namespace

const std::vector<MicroKernel>& available_kernels() {
  static const std::vector<MicroKernel> kernels = build_kernel_list();
  return kernels;
}

const MicroKernel* find_kernel(std::string_view name) {
  const auto& kernels = available_kernels();
  const auto it = std::find_if(kernels.begin(), kernels.end(),
                               [&](const MicroKernel& k) { return name == k.name; });
  return it == kernels.end() ? nullptr : &*it;
}

const MicroKernel& scalar_kernel() { return available_kernels().back(); }

std::string cpu_features() {
#if defined(__x86_64__) || defined(__i386__)
  if (host_has_avx2_fma()) return "avx2+fma";
  return "x86-portable";
#elif defined(__aarch64__)
  return "neon";
#else
  return "portable-scalar";
#endif
}

}  // namespace nodetr::tensor::simd
