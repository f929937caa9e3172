// Golden logits of the paper model: the float forward's output bits, pinned
// so a rewrite of any layer kernel shows up even where the rewritten kernel
// is shared by every path the other bitwise tests compare.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

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

// Captured from the implementation before the float conv inference path
// stopped materializing intermediates (scalar 9-tap depthwise, separate
// depthwise and im2col pointwise convs, one tensor per BN and ReLU). Float
// bits depend on the GEMM microkernel and on its KC blocking (a k split
// rounds the partial sum through C), so each golden names a full config;
// ctest runs this test once under each (tests/CMakeLists.txt), and it skips
// under any other. They hold for the portable x86-64 build: a -march=native
// build turns on FMA contraction.
TEST(CoreGoldens, PaperModelLogitsMatchGoldenFingerprints) {
#if defined(NODETR_NATIVE_BUILD) || !defined(__x86_64__)
  GTEST_SKIP() << "golden fingerprints are for the portable x86-64 build";
#else
  struct Golden {
    std::string_view spec;
    std::uint64_t batch1, batch8;
  };
  constexpr Golden kGoldens[] = {
      {"avx2_6x16:384:256:1024", 0x690c2d465e8ac05bull, 0xc36b329ed3a70234ull},
      {"scalar_4x8:384:256:1024", 0x3aea2270ad048b01ull, 0xd74f3d896c399c41ull},
  };
  const std::string spec = nt::tune::to_spec(nt::tune::gemm_config());
  const Golden* golden = nullptr;
  for (const auto& g : kGoldens) {
    if (g.spec == spec) golden = &g;
  }
  if (golden == nullptr) GTEST_SKIP() << "no goldens for GEMM config " << spec;
  core::LightweightTransformer model;
  nt::Rng rng(0x17);
  perturb_batchnorms(model.model(), rng);
  const auto batch = rng.rand(nt::Shape{8, 3, 96, 96});
  const std::uint64_t fp1 = fnv1a(model.predict_logits(batch.slice0(0, 1)));
  const std::uint64_t fp8 = fnv1a(model.predict_logits(batch));
  EXPECT_EQ(fp1, golden->batch1) << spec << " batch 1, got 0x" << std::hex << fp1;
  EXPECT_EQ(fp8, golden->batch8) << spec << " batch 8, got 0x" << std::hex << fp8;
#endif
}
