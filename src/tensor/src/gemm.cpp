#include "nodetr/tensor/gemm.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/arena.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/simd.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nodetr::tensor {

namespace obs = nodetr::obs;

namespace {

constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }
constexpr index_t round_up(index_t a, index_t b) { return ceil_div(a, b) * b; }

/// Whether the microkernel reads op(B)'s full micro-panels where they lie: a
/// plain view, whose rows are contiguous columns. Conv and transposed views
/// are always packed.
[[nodiscard]] bool reads_b_in_place(const GemmView& b) { return !b.conv && !b.trans; }

/// Pack one B micro-panel: columns [col0, col0 + nr) of op(B), depth [pc,
/// pc + kc), k-major (element (p, j) at dst[p * nr_max + j]), zero-padded to
/// nr_max columns. Panel content depends only on (pc, col0, kc, nr), never
/// on which thread packs it. A conv view's panel is gathered from its planes.
void pack_b_panel(const GemmView& b, index_t pc, index_t col0, index_t kc, index_t nr,
                  index_t nr_max, float* dst) {
  if (b.conv) {
    im2col_block(b.data, b.h, b.w, b.geom, pc, kc, col0, nr, dst, nr_max);
    for (index_t p = 0; p < kc && nr < nr_max; ++p) {
      std::fill(dst + p * nr_max + nr, dst + (p + 1) * nr_max, 0.0f);
    }
  } else if (!b.trans) {
    for (index_t p = 0; p < kc; ++p) {
      const float* src = b.data + (pc + p) * b.ld + col0;
      float* d = dst + p * nr_max;
      for (index_t j = 0; j < nr; ++j) d[j] = src[j];
      for (index_t j = nr; j < nr_max; ++j) d[j] = 0.0f;
    }
  } else {
    for (index_t j = 0; j < nr; ++j) {
      const float* src = b.data + (col0 + j) * b.ld + pc;
      for (index_t p = 0; p < kc; ++p) dst[p * nr_max + j] = src[p];
    }
    for (index_t j = nr; j < nr_max; ++j) {
      for (index_t p = 0; p < kc; ++p) dst[p * nr_max + j] = 0.0f;
    }
  }
}

[[nodiscard]] bool needs_epilogue(const GemmEpilogue& ep) {
  return ep.alpha != 1.0f || ep.bias_col != nullptr || ep.bias_row != nullptr ||
         ep.residual != nullptr || ep.relu;
}

/// Problems below this many MACs run on the calling thread: a pool
/// fork/join costs more than it saves (the MHSA's per-head GEMMs are ~2^14).
constexpr index_t kSerialMacs = index_t{1} << 18;

/// parallel_for, or the whole range on the calling thread when `serial`.
/// One GEMM call makes the choice once, for all of its loops.
void run_range(bool serial, index_t count, index_t grain,
               const std::function<void(index_t, index_t)>& body) {
  if (serial) {
    if (count > 0) body(0, count);
  } else {
    parallel_for(0, count, body, grain);
  }
}

/// Column-panel epilogue: runs right after the panel's last k block while the
/// C rows are still cache-hot.
void apply_epilogue(float* c, index_t ldc, index_t m, index_t n, index_t jc, index_t nc,
                    const GemmEpilogue& ep, bool serial) {
  const index_t res_ld = ep.residual_ld > 0 ? ep.residual_ld : n;
  run_range(serial, m, /*grain=*/64, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      float* row = c + i * ldc + jc;
      const float br = ep.bias_row != nullptr ? ep.bias_row[i] : 0.0f;
      const float* bc = ep.bias_col != nullptr ? ep.bias_col + jc : nullptr;
      const float* res = ep.residual != nullptr ? ep.residual + i * res_ld + jc : nullptr;
      for (index_t j = 0; j < nc; ++j) {
        float v = ep.alpha * row[j] + br;
        if (bc != nullptr) v += bc[j];
        if (res != nullptr) v += res[j];
        if (ep.relu && v < 0.0f) v = 0.0f;
        row[j] = v;
      }
    }
  });
}

void check_rank2(const Tensor& t, const char* name) {
  if (t.rank() != 2) throw std::invalid_argument(std::string(name) + ": rank must be 2");
}

/// The blocked product proper: C = op(A) op(B), then the epilogue. Each
/// output element is one ascending-k chain: the kernel starts it from zero on
/// the first k panel and from C on every later one, so neither the blocking
/// nor the tile split changes a bit.
void blocked_product(index_t m, index_t k, index_t n, GemmView a, GemmView b, float* c,
                     index_t ldc, const tune::GemmConfig& cfg, const GemmEpilogue& ep,
                     bool serial) {
  const simd::MicroKernel& ker = *cfg.kernel;
  const index_t kMr = ker.mr, kNr = ker.nr;
  const index_t kKc = cfg.kc, kMc = cfg.mc, kNc = cfg.nc;
  // The microkernel reads A where it lies: element (i, p) of op(A) at
  // a.data[i * rs_a + p * cs_a].
  const index_t rs_a = a.trans ? 1 : a.ld, cs_a = a.trans ? a.ld : 1;

  // A plain B is read where it lies, as A is, except for the ragged last
  // panel of each NC block, whose missing columns the kernel would read:
  // only that panel is packed, on the calling thread. Any other B is packed
  // whole. The pack lives in the caller's arena and is shared by all
  // workers: panels are written by exactly one pack task (or the caller)
  // and read only after the pack joins, so the pool's fork/join provides
  // the happens-before edge. ScratchArena returns 64-byte-aligned storage,
  // which makes the first row of every panel cacheline-aligned for the SIMD
  // loads.
  const bool in_place = reads_b_in_place(b);
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* bpack = arena.alloc<float>(static_cast<std::size_t>(
      std::min(k, kKc) * (in_place ? kNr : round_up(std::min(n, kNc), kNr))));

  for (index_t jc = 0; jc < n; jc += kNc) {
    const index_t nc = std::min(kNc, n - jc);
    const index_t jpanels = ceil_div(nc, kNr);
    // Panels [0, full) are read in place; the rest come from the pack.
    const index_t full = in_place ? nc / kNr : 0;
    for (index_t pc = 0; pc < k; pc += kKc) {
      const index_t kc = std::min(kKc, k - pc);
      const bool first = pc == 0;
      if (in_place) {
        if (full < jpanels) pack_b_panel(b, pc, jc + full * kNr, kc, nc - full * kNr, kNr, bpack);
      } else {
        run_range(serial, jpanels, /*grain=*/8, [&](index_t lo, index_t hi) {
          for (index_t jp = lo; jp < hi; ++jp) {
            pack_b_panel(b, pc, jc + jp * kNr, kc, std::min(kNr, nc - jp * kNr), kNr,
                         bpack + jp * kNr * kc);
          }
        });
      }
      // MC rows of A at a time: the MC x KC block the tiles stream from L2.
      for (index_t ic = 0; ic < m; ic += kMc) {
        const index_t mc = std::min(kMc, m - ic);
        const index_t ipanels = ceil_div(mc, kMr);
        // BLIS-style macro kernel: the jr and ir loops around the microkernel
        // are flattened into one tile index and partitioned across the pool,
        // jr-major so consecutive tiles in a chunk reuse the same L1-resident
        // B micro-panel. Tile (jp, ip) is written by exactly one task, and
        // the split never changes any output element's k accumulation order.
        run_range(serial, jpanels * ipanels, /*grain=*/8, [&](index_t lo, index_t hi) {
          for (index_t t = lo; t < hi; ++t) {
            const index_t jp = t / ipanels, ip = t % ipanels;
            const index_t nr = std::min(kNr, nc - jp * kNr);
            const index_t mr = std::min(kMr, mc - ip * kMr);
            const index_t row0 = ic + ip * kMr;
            const index_t col0 = jc + jp * kNr;
            const bool b_here = jp < full;
            const float* bt = b_here ? b.data + pc * b.ld + col0 : bpack + (jp - full) * kNr * kc;
            ker.fn(static_cast<int>(kc), a.data + row0 * rs_a + pc * cs_a, rs_a, cs_a, bt,
                   b_here ? b.ld : kNr, c + row0 * ldc + col0, ldc, mr, nr, first);
          }
        });
      }
    }
    if (needs_epilogue(ep)) apply_epilogue(c, ldc, m, n, jc, nc, ep, serial);
  }
}

}  // namespace

void gemm_blocked_cfg(index_t m, index_t k, index_t n, GemmView a, GemmView b, float* c,
                      index_t ldc, const tune::GemmConfig& cfg, const GemmEpilogue& ep) {
  if (a.conv) throw std::invalid_argument("gemm_blocked: A cannot be a conv view");
  if (b.conv) {
    const Conv2dGeom& g = b.geom;
    if (k != g.in_channels * g.kernel * g.kernel || n != g.out_extent(b.h) * g.out_extent(b.w)) {
      throw std::invalid_argument("gemm_blocked: conv view is not a k x n matrix");
    }
  }
  if (m <= 0 || n <= 0) return;
  static auto& calls = obs::Registry::instance().counter("tensor.gemm.calls");
  static auto& flops = obs::Registry::instance().counter("tensor.gemm.flops");
  calls.add();
  flops.add(2 * m * k * n);
  // The tile split never changes any element's k order, so running serially
  // changes no output bit.
  const bool serial = m * std::max<index_t>(k, 1) * n < kSerialMacs;
  if (k <= 0) {
    if (!ep.accumulate) {
      for (index_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0f);
      if (needs_epilogue(ep)) apply_epilogue(c, ldc, m, n, 0, n, ep, serial);
    }
    return;
  }
  if (!ep.accumulate) {
    blocked_product(m, k, n, a, b, c, ldc, cfg, ep, serial);
    return;
  }
  // c += A B adds the finished product to C: one rounding per element, after
  // the chain. Seeding the chain from C would round differently, and the
  // MHSA adds its relative-position logits Q R^T onto Q K^T this way.
  auto& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* prod = arena.alloc<float>(static_cast<std::size_t>(m * n));
  blocked_product(m, k, n, a, b, prod, n, cfg, {}, serial);
  run_range(serial, m, /*grain=*/64, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      float* row = c + i * ldc;
      const float* add = prod + i * n;
      for (index_t j = 0; j < n; ++j) row[j] += add[j];
    }
  });
}

void gemm_blocked(index_t m, index_t k, index_t n, GemmView a, GemmView b, float* c, index_t ldc,
                  const GemmEpilogue& ep) {
  gemm_blocked_cfg(m, k, n, a, b, c, ldc, tune::gemm_config(), ep);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul: a");
  check_rank2(b, "matmul: b");
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dimensions mismatch " + a.shape().to_string() +
                                " x " + b.shape().to_string());
  }
  Tensor c(Shape{m, n});
  gemm_blocked(m, k, n, GemmView::plain(a.data(), k), GemmView::plain(b.data(), n), c.data(), n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_nt: a");
  check_rank2(b, "matmul_nt: b");
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_nt: inner dimensions mismatch " + a.shape().to_string() +
                                " x " + b.shape().to_string() + "^T");
  }
  Tensor c(Shape{m, n});
  gemm_blocked(m, k, n, GemmView::plain(a.data(), k), GemmView::transposed(b.data(), k),
               c.data(), n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_tn: a");
  check_rank2(b, "matmul_tn: b");
  const index_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul_tn: inner dimensions mismatch " + a.shape().to_string() +
                                "^T x " + b.shape().to_string());
  }
  Tensor c(Shape{m, n});
  gemm_blocked(m, k, n, GemmView::transposed(a.data(), m), GemmView::plain(b.data(), n),
               c.data(), n);
  return c;
}

void gemm_accumulate(const float* a, const float* b, float* c, index_t m, index_t k, index_t n) {
  gemm_blocked(m, k, n, GemmView::plain(a, k), GemmView::plain(b, n), c, n,
               {.accumulate = true});
}

}  // namespace nodetr::tensor
