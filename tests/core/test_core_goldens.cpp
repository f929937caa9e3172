// Golden logits of the paper model: the float forward's output bits, pinned
// so a rewrite of any layer kernel shows up even where the rewritten kernel
// is shared by every path the other bitwise tests compare.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/nn/norm.hpp"
#include "nodetr/tensor/tune.hpp"

namespace core = nodetr::core;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;

namespace {

std::uint64_t fnv1a(const nt::Tensor& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Gives every BatchNorm2d in the tree non-trivial running statistics and
/// affine parameters, so each BN pass moves the logits.
void perturb_batchnorms(nn::Module& m, nt::Rng& rng) {
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
    const auto buffers = bn->local_buffers();  // running mean, running var
    for (nt::index_t c = 0; c < bn->gamma().numel(); ++c) {
      (*buffers[0])[c] = rng.uniform(-0.1f, 0.1f);
      (*buffers[1])[c] = rng.uniform(0.5f, 1.5f);
      bn->gamma().value[c] = rng.uniform(0.75f, 1.25f);
      bn->beta().value[c] = rng.uniform(-0.1f, 0.1f);
    }
  }
  for (nn::Module* c : m.children()) perturb_batchnorms(*c, rng);
}

}  // namespace

// Every output element of the float GEMM is one ascending-k chain, whatever
// the blocking, thread count or batch size, so the logits have one bit
// pattern per arithmetic: one for the FMA kernels (every avx2_* tile shape)
// and one for scalar_4x8, which rounds each product. ctest runs this test
// under several kernels and KC values (tests/CMakeLists.txt), and once
// unpinned. The kernel libraries are built with -ffp-contract=off, so the
// goldens hold in the -DNODETR_NATIVE=ON build too. They equal what a GEMM
// that rounded each k panel's partial sum through C gave at KC 2048, above
// every K in the model.
TEST(CoreGoldens, PaperModelLogitsMatchGoldenFingerprints) {
#ifndef __x86_64__
  GTEST_SKIP() << "golden fingerprints are for x86-64";
#else
  struct Golden {
    std::uint64_t batch1, batch8;
  };
  constexpr Golden kFma{0xc68f0898acae5763ull, 0x979209b5e9d352baull};
  constexpr Golden kScalar{0x24b74dcc60da82cdull, 0x3118bff6cb47e0d6ull};
  const auto& cfg = nt::tune::gemm_config();
  const Golden& golden = cfg.kernel == &nt::simd::scalar_kernel() ? kScalar : kFma;
  const std::string spec = nt::tune::to_spec(cfg);
  core::LightweightTransformer model;
  nt::Rng rng(0x17);
  perturb_batchnorms(model.model(), rng);
  const auto batch = rng.rand(nt::Shape{8, 3, 96, 96});
  const std::uint64_t fp1 = fnv1a(model.predict_logits(batch.slice0(0, 1)));
  const std::uint64_t fp8 = fnv1a(model.predict_logits(batch));
  EXPECT_EQ(fp1, golden.batch1) << spec << " batch 1, got 0x" << std::hex << fp1;
  EXPECT_EQ(fp8, golden.batch8) << spec << " batch 8, got 0x" << std::hex << fp8;
#endif
}
