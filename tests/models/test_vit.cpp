#include "nodetr/models/vit.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "../common/gradcheck.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/tune.hpp"

namespace m = nodetr::models;
namespace nt = nodetr::tensor;

namespace {
m::ViTConfig micro_cfg() {
  m::ViTConfig cfg;
  cfg.image_size = 16;
  cfg.patch_size = 8;
  cfg.classes = 4;
  cfg.dim = 8;
  cfg.depth = 2;
  cfg.heads = 2;
  cfg.mlp_dim = 16;
  return cfg;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// FNV-1a over the bytes of `t`, continuing from `h`.
std::uint64_t fnv1a(const nt::Tensor& t, std::uint64_t h = kFnvBasis) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

TEST(ViTBlock, ShapePreserved) {
  nt::Rng rng(1);
  m::ViTBlock block(8, 2, 16, /*tokens=*/5, rng);
  auto x = rng.randn(nt::Shape{2, 5, 8});
  EXPECT_EQ(block.forward(x).shape(), x.shape());
}

TEST(ViTBlock, GradCheck) {
  nt::Rng rng(2);
  m::ViTBlock block(4, 2, 8, /*tokens=*/3, rng);
  auto x = rng.randn(nt::Shape{1, 3, 4});
  nodetr::testing::expect_gradients_match(block, x, /*seed=*/21, /*checks=*/5, /*eps=*/1e-2f,
                                          /*tol=*/6e-2f);
}

TEST(ViT, TokenCountIncludesClassToken) {
  nt::Rng rng(3);
  m::ViT vit(micro_cfg(), rng);
  EXPECT_EQ(vit.tokens(), 2 * 2 + 1);
}

TEST(ViT, ForwardShape) {
  nt::Rng rng(4);
  m::ViT vit(micro_cfg(), rng);
  auto x = rng.rand(nt::Shape{3, 3, 16, 16});
  EXPECT_EQ(vit.forward(x).shape(), (nt::Shape{3, 4}));
}

TEST(ViT, GradCheckMicro) {
  nt::Rng rng(5);
  m::ViT vit(micro_cfg(), rng);
  auto x = rng.rand(nt::Shape{1, 3, 16, 16});
  // Small eps: the class token feeds several LayerNorms whose curvature makes
  // coarse central differences unreliable.
  nodetr::testing::expect_gradients_match(vit, x, /*seed=*/22, /*checks=*/4, /*eps=*/1e-3f,
                                          /*tol=*/8e-2f);
}

TEST(ViT, ParamCountFormula) {
  nt::Rng rng(6);
  auto cfg = micro_cfg();
  m::ViT vit(cfg, rng);
  const nt::index_t d = cfg.dim, t = 5, mlp = cfg.mlp_dim;
  const nt::index_t patch = 3 * cfg.patch_size * cfg.patch_size * d + d;
  const nt::index_t block = 2 * (2 * d) +            // two LayerNorms
                            3 * d * d +              // qkv, no bias/out-proj
                            (d * mlp + mlp) + (mlp * d + d);  // MLP
  const nt::index_t expected = patch + d /*cls*/ + t * d /*pos*/ + cfg.depth * block +
                               2 * d /*final LN*/ + (d * cfg.classes + cfg.classes);
  EXPECT_EQ(vit.num_parameters(), expected);
}

// Golden bits of a small seeded ViT: its logits at batch 2, and every
// parameter gradient after one backward, hashed in parameters() order. As
// with CoreGoldens there is one bit pattern per GEMM arithmetic: the FMA
// kernels and scalar_4x8.
TEST(ViT, LogitsAndGradientsMatchGoldenFingerprints) {
#ifndef __x86_64__
  GTEST_SKIP() << "golden fingerprints are for x86-64";
#else
  struct Golden {
    std::uint64_t logits, grads;
  };
  constexpr Golden kFma{0x96e7a2af9179574full, 0xede6ea118394d023ull};
  constexpr Golden kScalar{0x7436fe53f429a3ecull, 0xd489ceb6ac2ee1e6ull};
  const auto& cfg = nt::tune::gemm_config();
  const Golden& golden = cfg.kernel == &nt::simd::scalar_kernel() ? kScalar : kFma;
  const std::string spec = nt::tune::to_spec(cfg);
  m::ViTConfig vit_cfg;
  vit_cfg.image_size = 32;
  vit_cfg.patch_size = 8;
  vit_cfg.classes = 5;
  vit_cfg.dim = 32;
  vit_cfg.depth = 2;
  vit_cfg.heads = 4;
  vit_cfg.mlp_dim = 64;
  nt::Rng rng(0x5eed);
  m::ViT vit(vit_cfg, rng);
  const auto x = rng.rand(nt::Shape{2, 3, 32, 32});
  const auto logits = vit.forward(x);
  (void)vit.backward(rng.randn(logits.shape()));
  std::uint64_t grads = kFnvBasis;
  for (const auto* p : vit.parameters()) grads = fnv1a(p->grad, grads);
  const std::uint64_t fp = fnv1a(logits);
  EXPECT_EQ(fp, golden.logits) << spec << " logits, got 0x" << std::hex << fp;
  EXPECT_EQ(grads, golden.grads) << spec << " gradients, got 0x" << std::hex << grads;
#endif
}
