// Differential suite for every runtime-dispatched GEMM microkernel variant.
//
// Every kernel the dispatcher could hand out on this host is driven through
// gemm_blocked_cfg with deliberately tiny blocking (so block edges, partial
// tiles, and the k-split all trigger on small inputs) and checked against a
// double-accumulating naive reference, against the scalar kernel, and for
// the two reproducibility contracts the serving stack relies on:
//   - bitwise-identical rows across batch splits (same kernel), and
//   - bitwise-identical output whether the tile loops run on the pool or
//     serially (what a different thread count changes).
// This file is part of test_tensor, so it also rides the TSan CI job, which
// exercises the shared packed B panels across pool workers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../common/gemm_chain.hpp"
#include "nodetr/tensor/arena.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/rng.hpp"
#include "nodetr/tensor/simd.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nt = nodetr::tensor;
namespace simd = nodetr::tensor::simd;
namespace tune = nodetr::tensor::tune;

namespace {

nt::Tensor naive_matmul(const nt::Tensor& a, const nt::Tensor& b) {
  const auto m = a.dim(0), k = a.dim(1), n = b.dim(1);
  nt::Tensor c(nt::Shape{m, n});
  for (nt::index_t i = 0; i < m; ++i)
    for (nt::index_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (nt::index_t p = 0; p < k; ++p) acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

/// Tiny blocking: MC/NC of two tiles and a KC that splits k on odd shapes,
/// so every loop in the macro kernel rolls over even for ~30-row problems.
tune::GemmConfig tiny_config(const simd::MicroKernel& kernel) {
  tune::GemmConfig cfg;
  cfg.kernel = &kernel;
  cfg.mc = kernel.mr * 2;
  cfg.kc = 24;
  cfg.nc = kernel.nr * 2;
  cfg.source = "default";
  return cfg;
}

nt::Tensor run_cfg(const nt::Tensor& a, const nt::Tensor& b, const tune::GemmConfig& cfg,
                   const nt::GemmEpilogue& ep = {}) {
  nt::Tensor c(nt::Shape{a.dim(0), b.dim(1)});
  nt::gemm_blocked_cfg(a.dim(0), a.dim(1), b.dim(1), nt::GemmView::plain(a.data(), a.dim(1)),
                       nt::GemmView::plain(b.data(), b.dim(1)), c.data(), b.dim(1), cfg, ep);
  return c;
}

class SimdKernels : public ::testing::TestWithParam<std::size_t> {
 protected:
  const simd::MicroKernel& kernel() const { return simd::available_kernels()[GetParam()]; }
};

}  // namespace

TEST(SimdRegistry, ScalarFallbackAlwaysAvailable) {
  ASSERT_FALSE(simd::available_kernels().empty());
  EXPECT_STREQ(simd::scalar_kernel().name, "scalar_4x8");
  EXPECT_EQ(simd::find_kernel("scalar_4x8"), &simd::scalar_kernel());
  EXPECT_EQ(simd::find_kernel("no_such_kernel"), nullptr);
  for (const auto& k : simd::available_kernels()) {
    EXPECT_GT(k.mr, 0);
    EXPECT_GT(k.nr, 0);
    EXPECT_NE(k.fn, nullptr);
  }
}

TEST_P(SimdKernels, MatchesNaiveOnOddShapes) {
  const struct { int m, k, n; } shapes[] = {
      {1, 1, 1}, {1, 8, 1},  {3, 5, 7},    {17, 23, 9},
      {33, 7, 19}, {40, 40, 40}, {6, 16, 16}, {65, 29, 33},
  };
  for (const auto& s : shapes) {
    nt::Rng rng(static_cast<std::uint64_t>(s.m * 10000 + s.k * 100 + s.n));
    auto a = rng.randn(nt::Shape{s.m, s.k});
    auto b = rng.randn(nt::Shape{s.k, s.n});
    const auto ref = naive_matmul(a, b);
    EXPECT_TRUE(nt::allclose(run_cfg(a, b, tiny_config(kernel())), ref, 1e-4f, 1e-4f))
        << kernel().name << " " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_P(SimdKernels, MatchesScalarWithinTolerance) {
  nt::Rng rng(11);
  auto a = rng.randn(nt::Shape{37, 53});
  auto b = rng.randn(nt::Shape{53, 29});
  const auto scalar = run_cfg(a, b, tiny_config(simd::scalar_kernel()));
  // FMA contracts intermediate roundings, so variants differ in ulps from
  // the scalar reference — but must stay within float tolerance.
  EXPECT_TRUE(nt::allclose(run_cfg(a, b, tiny_config(kernel())), scalar, 1e-4f, 1e-4f));
}

TEST_P(SimdKernels, TransposedViewsMatchPlain) {
  nt::Rng rng(12);
  auto a = rng.randn(nt::Shape{19, 21});
  auto b = rng.randn(nt::Shape{21, 13});
  const auto cfg = tiny_config(kernel());
  const auto plain = run_cfg(a, b, cfg);
  const auto at = a.transposed();  // (21, 19) storing A^T
  const auto bt = b.transposed();  // (13, 21) storing B^T
  nt::Tensor c_ta(nt::Shape{19, 13}), c_tb(nt::Shape{19, 13});
  nt::gemm_blocked_cfg(19, 21, 13, nt::GemmView::transposed(at.data(), 19),
                       nt::GemmView::plain(b.data(), 13), c_ta.data(), 13, cfg);
  nt::gemm_blocked_cfg(19, 21, 13, nt::GemmView::plain(a.data(), 21),
                       nt::GemmView::transposed(bt.data(), 21), c_tb.data(), 13, cfg);
  // The kernel reads the same A values by other strides, and the B pack
  // normalizes both B views to one panel layout, so the products are bitwise
  // equal, not merely close.
  EXPECT_EQ(std::memcmp(plain.data(), c_ta.data(), sizeof(float) * 19 * 13), 0);
  EXPECT_EQ(std::memcmp(plain.data(), c_tb.data(), sizeof(float) * 19 * 13), 0);
}

TEST_P(SimdKernels, EpiloguesMatchManualApplication) {
  nt::Rng rng(13);
  auto a = rng.randn(nt::Shape{18, 31});
  auto b = rng.randn(nt::Shape{31, 22});
  auto bias_col = rng.randn(nt::Shape{22});
  auto bias_row = rng.randn(nt::Shape{18});
  auto residual = rng.randn(nt::Shape{18, 22});
  const auto cfg = tiny_config(kernel());

  nt::GemmEpilogue ep;
  ep.alpha = 0.5f;
  ep.bias_col = bias_col.data();
  ep.bias_row = bias_row.data();
  ep.residual = residual.data();
  ep.relu = true;
  const auto fused = run_cfg(a, b, cfg, ep);

  auto manual = run_cfg(a, b, cfg);
  for (nt::index_t i = 0; i < 18; ++i)
    for (nt::index_t j = 0; j < 22; ++j) {
      float v = 0.5f * manual.at(i, j) + bias_row[i] + bias_col[j] + residual.at(i, j);
      manual.at(i, j) = v < 0.0f ? 0.0f : v;
    }
  EXPECT_TRUE(nt::allclose(fused, manual, 1e-5f, 1e-6f));

  // accumulate: c += A B on a pre-filled C. The old value seeds the FMA
  // chain (first=false on the first k block) rather than being added after
  // the product, so this is tolerance-equal, not bitwise-equal.
  nt::Tensor acc(nt::Shape{18, 22}, 1.5f);
  nt::gemm_blocked_cfg(18, 31, 22, nt::GemmView::plain(a.data(), 31),
                       nt::GemmView::plain(b.data(), 22), acc.data(), 22, cfg,
                       {.accumulate = true});
  const auto base = run_cfg(a, b, cfg);
  for (nt::index_t i = 0; i < 18; ++i)
    for (nt::index_t j = 0; j < 22; ++j) {
      EXPECT_NEAR(acc.at(i, j), base.at(i, j) + 1.5f, 1e-4f);
    }
}

TEST_P(SimdKernels, BitwiseStableAcrossBatchSplit) {
  // The serving engine's contract: a request's rows are bitwise identical
  // whether computed alone or inside a larger batch. Rows are independent in
  // GEMM, so for a fixed kernel the split must not change a single bit.
  constexpr nt::index_t kM = 37, kK = 45, kN = 31;
  nt::Rng rng(14);
  auto a = rng.randn(nt::Shape{kM, kK});
  auto b = rng.randn(nt::Shape{kK, kN});
  const auto cfg = tiny_config(kernel());
  const auto full = run_cfg(a, b, cfg);
  for (const nt::index_t split : {1, 6, 17, 36}) {
    nt::Tensor parts(nt::Shape{kM, kN});
    nt::gemm_blocked_cfg(split, kK, kN, nt::GemmView::plain(a.data(), kK),
                         nt::GemmView::plain(b.data(), kN), parts.data(), kN, cfg);
    nt::gemm_blocked_cfg(kM - split, kK, kN, nt::GemmView::plain(a.data() + split * kK, kK),
                         nt::GemmView::plain(b.data(), kN), parts.data() + split * kN, kN, cfg);
    EXPECT_EQ(std::memcmp(full.data(), parts.data(), sizeof(float) * kM * kN), 0)
        << kernel().name << " split at " << split;
  }
}

TEST_P(SimdKernels, BitwiseStableSerialVsPooled) {
  // Running inside a pool chunk forces every nested parallel_for serial —
  // the single-thread schedule. The top-level call uses the full pool. Same
  // kernel, different thread split: the outputs must be bitwise identical.
  constexpr nt::index_t kM = 64, kK = 52, kN = 48;
  nt::Rng rng(15);
  auto a = rng.randn(nt::Shape{kM, kK});
  auto b = rng.randn(nt::Shape{kK, kN});
  const auto cfg = tiny_config(kernel());
  const auto pooled = run_cfg(a, b, cfg);
  nt::Tensor serial(nt::Shape{kM, kN});
  nt::ThreadPool::global().run_chunks(2, [&](std::size_t chunk) {
    if (chunk != 0) return;
    nt::gemm_blocked_cfg(kM, kK, kN, nt::GemmView::plain(a.data(), kK),
                         nt::GemmView::plain(b.data(), kN), serial.data(), kN, cfg);
  });
  EXPECT_EQ(std::memcmp(pooled.data(), serial.data(), sizeof(float) * kM * kN), 0);
}

TEST_P(SimdKernels, DefaultBlockingMatchesNaive) {
  // The real (cache-derived) blocking, not the tiny one: catches bugs that
  // only appear when a whole matrix fits one block.
  const auto cfg = tune::default_config(kernel(), tune::host_caches());
  nt::Rng rng(16);
  auto a = rng.randn(nt::Shape{70, 65});
  auto b = rng.randn(nt::Shape{65, 50});
  EXPECT_TRUE(nt::allclose(run_cfg(a, b, cfg), naive_matmul(a, b), 1e-4f, 1e-4f));
}

// The vector kernels run one FMA chain per output element, so each output is
// exactly a scalar std::fma chain in ascending k, started from 0 (`first`) or
// from C's value, and stored. Checked bit for bit on every live tile shape,
// with A read in place from a plain (mr x kc) and a transposed (kc x mr)
// block, and C's untouched region (rows and columns past mr x nr) left as it
// was.
TEST(SimdKernelBits, FmaKernelsEqualScalarFmaChain) {
  nt::Rng rng(17);
  int kernels = 0;
  for (const auto& kern : simd::available_kernels()) {
    if (&kern == &simd::scalar_kernel()) continue;  // no FMA: rounds each product
    ++kernels;
    const nt::index_t kmr = kern.mr, knr = kern.nr, ldc = knr + 3;
    for (const int kc : {1, 2, 7, 64, 257}) {
      const nt::Tensor a = rng.randn(nt::Shape{kmr, kc});
      const nt::Tensor b = rng.randn(nt::Shape{kc, knr});
      const nt::Tensor c0 = rng.randn(nt::Shape{kmr + 1, ldc});
      for (nt::index_t mr = 1; mr <= kmr; ++mr) {
        // A's first mr rows, each view exactly mr * kc floats: a row past mr
        // would read outside it.
        const std::vector<float> plain(a.data(), a.data() + mr * kc);
        std::vector<float> trans(static_cast<std::size_t>(mr * kc));
        for (nt::index_t i = 0; i < mr; ++i)
          for (int p = 0; p < kc; ++p) trans[static_cast<std::size_t>(p * mr + i)] = a.at(i, p);
        const struct {
          const float* data;
          nt::index_t rs, cs;
        } views[] = {{plain.data(), kc, 1}, {trans.data(), 1, mr}};
        for (const auto& v : views)
          for (nt::index_t nr = 1; nr <= knr; ++nr) {
            for (const bool first : {true, false}) {
              nt::Tensor c = c0;
              kern.fn(kc, v.data, v.rs, v.cs, b.data(), knr, c.data(), ldc, mr, nr, first);
              for (nt::index_t i = 0; i <= kmr; ++i)
                for (nt::index_t j = 0; j < ldc; ++j) {
                  // Not first: the chain continues from C's value.
                  float want = c0.at(i, j);
                  if (i < mr && j < nr) {
                    float acc = first ? 0.0f : want;
                    for (int p = 0; p < kc; ++p) acc = std::fma(a.at(i, p), b.at(p, j), acc);
                    want = acc;
                  }
                  ASSERT_EQ(std::memcmp(&c.at(i, j), &want, sizeof(float)), 0)
                      << kern.name << " kc " << kc << " tile " << mr << "x" << nr << " rs "
                      << v.rs << " first " << first << " at (" << i << ", " << j
                      << "): " << c.at(i, j) << " vs " << want;
                }
            }
          }
      }
    }
  }
  if (kernels == 0) GTEST_SKIP() << "no vector microkernel on this host";
}

// Through the GEMM, every kernel reads A where it lies, from a plain and a
// transposed view, with m % mr != 0 (a bottom-edge tile) and KC values that
// split k or not. Each view's storage is exactly A's m * k floats, so a read
// past A is a heap overflow under ASan. The product is bitwise one chain per
// element.
TEST(SimdKernelBits, ReadsAInPlaceFromPlainAndTransposedViews) {
  nt::Rng rng(19);
  for (const auto& kern : simd::available_kernels()) {
    const nt::index_t m = 3 * kern.mr + 1, k = 61, n = 2 * kern.nr + 5;
    const auto a = rng.randn(nt::Shape{m, k});
    const auto b = rng.randn(nt::Shape{k, n});
    const nt::Tensor want = nodetr::testing::chain_matmul(kern, a, b);
    const std::vector<float> plain(a.data(), a.data() + m * k);
    std::vector<float> trans(static_cast<std::size_t>(m * k));
    for (nt::index_t i = 0; i < m; ++i)
      for (nt::index_t p = 0; p < k; ++p) trans[static_cast<std::size_t>(p * m + i)] = a.at(i, p);
    const struct {
      nt::GemmView view;
      const char* name;
    } views[] = {{nt::GemmView::plain(plain.data(), k), "plain"},
                 {nt::GemmView::transposed(trans.data(), m), "transposed"}};
    for (const nt::index_t kc : {8, 24, 61, 256}) {
      auto cfg = tiny_config(kern);
      cfg.kc = kc;
      for (const auto& v : views) {
        nt::Tensor got(nt::Shape{m, n});
        nt::gemm_blocked_cfg(m, k, n, v.view, nt::GemmView::plain(b.data(), n), got.data(), n,
                             cfg);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * m * n), 0)
            << kern.name << " " << v.name << " KC " << kc;
      }
    }
  }
}

// Every kernel reads B by a row stride: a plain B wider than the tile (ldb >
// nr) is read where it lies and gives the bits of the same values packed
// into a micro-panel (ldb = nr). B fills its own allocation, ending at the
// last row's nr-th column, so a read past the tile is a heap overflow under
// ASan.
TEST(SimdKernelBits, ReadsBInPlaceWithRowStride) {
  nt::Rng rng(20);
  for (const auto& kern : simd::available_kernels()) {
    const nt::index_t kmr = kern.mr, knr = kern.nr, ldc = knr + 3;
    for (const int kc : {1, 7, 64, 257}) {
      for (const nt::index_t ldb : {knr + 1, 3 * knr + 5, nt::index_t{256}}) {
        const nt::Tensor a = rng.randn(nt::Shape{kmr, kc});
        std::vector<float> b(static_cast<std::size_t>((kc - 1) * ldb + knr));
        for (float& v : b) v = rng.normal();
        std::vector<float> panel(static_cast<std::size_t>(kc * knr));
        for (int p = 0; p < kc; ++p)
          for (nt::index_t j = 0; j < knr; ++j) {
            panel[static_cast<std::size_t>(p * knr + j)] = b[static_cast<std::size_t>(p * ldb + j)];
          }
        const nt::Tensor c0 = rng.randn(nt::Shape{kmr, ldc});
        for (const nt::index_t mr : {nt::index_t{1}, kmr}) {
          for (const bool first : {true, false}) {
            nt::Tensor packed = c0, here = c0;
            kern.fn(kc, a.data(), kc, 1, panel.data(), knr, packed.data(), ldc, mr, knr, first);
            kern.fn(kc, a.data(), kc, 1, b.data(), ldb, here.data(), ldc, mr, knr, first);
            EXPECT_EQ(std::memcmp(packed.data(), here.data(), sizeof(float) * kmr * ldc), 0)
                << kern.name << " kc " << kc << " ldb " << ldb << " mr " << mr << " first "
                << first;
          }
        }
      }
    }
  }
}

// Through the GEMM, a plain B is read in place in its full NR-wide panels and
// packed in its ragged last one, at any row stride, 1 KB multiples included.
// Each is bitwise the same B as a transposed view, which is always packed,
// and one chain per element; n % NR == 0 and a ragged n, a k split over KC
// panels, and a row stride wider than n. B fills
// its own allocation, so a read past its last row is an ASan report.
TEST(SimdKernelBits, GemmReadsPlainBInPlaceBitwiseAsPacked) {
  nt::Rng rng(21);
  for (const auto& kern : simd::available_kernels()) {
    const nt::index_t m = 2 * kern.mr + 3, k = 53;
    for (const nt::index_t n : {3 * kern.nr, 3 * kern.nr + 5}) {
      for (const nt::index_t ldb : {n, n + 3, nt::index_t{256}, nt::index_t{512}}) {
        const auto a = rng.randn(nt::Shape{m, k});
        const auto bt = rng.randn(nt::Shape{n, k});  // B^T, the packed reference
        std::vector<float> b(static_cast<std::size_t>((k - 1) * ldb + n));
        for (nt::index_t p = 0; p < k; ++p)
          for (nt::index_t j = 0; j < n; ++j) {
            b[static_cast<std::size_t>(p * ldb + j)] = bt.at(j, p);
          }
        const nt::Tensor want = nodetr::testing::chain_matmul(kern, a, bt.transposed());
        for (const nt::index_t kc : {16, 53}) {
          auto cfg = tiny_config(kern);
          cfg.kc = kc;
          nt::Tensor packed(nt::Shape{m, n}), here(nt::Shape{m, n});
          nt::gemm_blocked_cfg(m, k, n, nt::GemmView::plain(a.data(), k),
                               nt::GemmView::transposed(bt.data(), k), packed.data(), n, cfg);
          nt::gemm_blocked_cfg(m, k, n, nt::GemmView::plain(a.data(), k),
                               nt::GemmView::plain(b.data(), ldb), here.data(), n, cfg);
          const std::string label = std::string(kern.name) + " n " + std::to_string(n) +
                                    " ldb " + std::to_string(ldb) + " KC " + std::to_string(kc);
          EXPECT_EQ(std::memcmp(here.data(), packed.data(), sizeof(float) * m * n), 0) << label;
          EXPECT_EQ(std::memcmp(here.data(), want.data(), sizeof(float) * m * n), 0) << label;
        }
      }
    }
  }
}

// Blocking cannot move a bit. The paper's two downsample convolutions run
// GEMMs whose K (576 and 1152) spans several KC panels; M and N are cut to
// odd sizes that still fork the pool. At every KC every FMA kernel gives the
// bits of one std::fma chain per element, and scalar_4x8 those of its own
// rounded chain; `accumulate` adds that product to C once.
TEST(SimdKernelBits, PaperShapesBitwiseAcrossKc) {
  const struct { nt::index_t m, k, n; } shapes[] = {{29, 576, 37}, {19, 1152, 36}};
  nt::Rng rng(18);
  for (const auto& s : shapes) {
    const auto a = rng.randn(nt::Shape{s.m, s.k});
    const auto b = rng.randn(nt::Shape{s.k, s.n});
    const auto c0 = rng.randn(nt::Shape{s.m, s.n});
    for (const auto& kern : simd::available_kernels()) {
      const nt::Tensor chain = nodetr::testing::chain_matmul(kern, a, b);
      nt::Tensor accumulated = c0;
      for (nt::index_t i = 0; i < accumulated.numel(); ++i) accumulated[i] += chain[i];
      for (const nt::index_t kc : {64, 256, 416, 456, 2048}) {
        auto cfg = tune::default_config(kern, tune::host_caches());
        cfg.kc = kc;
        const nt::Tensor got = run_cfg(a, b, cfg);
        EXPECT_EQ(std::memcmp(got.data(), chain.data(), sizeof(float) * s.m * s.n), 0)
            << kern.name << " K " << s.k << " KC " << kc;
        nt::Tensor acc = c0;
        nt::gemm_blocked_cfg(s.m, s.k, s.n, nt::GemmView::plain(a.data(), s.k),
                             nt::GemmView::plain(b.data(), s.n), acc.data(), s.n, cfg,
                             {.accumulate = true});
        EXPECT_EQ(std::memcmp(acc.data(), accumulated.data(), sizeof(float) * s.m * s.n), 0)
            << kern.name << " K " << s.k << " KC " << kc << " accumulate";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SimdKernels,
    ::testing::Range(std::size_t{0}, simd::available_kernels().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(simd::available_kernels()[info.param].name);
    });

TEST(ScratchArenaAlignment, EveryAllocationIsCacheLineAligned) {
  // The SIMD packing contract (arena.hpp): any alloc, any odd size history.
  auto& arena = nt::ScratchArena::local();
  nt::ScratchArena::Scope scope(arena);
  for (const std::size_t count : {1u, 3u, 7u, 63u, 64u, 65u, 1000u, 4097u}) {
    const float* p = arena.alloc<float>(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "count " << count;
    const std::uint8_t* q = arena.alloc<std::uint8_t>(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 64, 0u) << "count " << count;
  }
}
