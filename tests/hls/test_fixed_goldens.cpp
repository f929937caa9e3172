// Goldens of the whole-model fixed datapath and of the full-model FPGA cost
// plan: the executor's logit bits, the plan's numbers, and the per-layer
// composition contract the end-to-end ledger (bench_e2e) relies on. A
// rewrite of the executor or of the plan must leave all of them unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/fx/qops.hpp"
#include "nodetr/hls/model_plan.hpp"
#include "nodetr/hls/qexec.hpp"
#include "nodetr/models/zoo.hpp"

namespace core = nodetr::core;
namespace fx = nodetr::fx;
namespace hls = nodetr::hls;
namespace m = nodetr::models;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace ode = nodetr::ode;

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(const nt::Tensor& t) {
  return fnv1a(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

bool bitwise_equal(const fx::FixedTensor& a, const fx::FixedTensor& b) {
  return a.shape() == b.shape() && a.format() == b.format() &&
         std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) *
                                           sizeof(std::int64_t)) == 0;
}

/// Gives every BatchNorm2d in the tree non-trivial running statistics and
/// affine parameters, so each folded scale/shift moves the logits.
void perturb_batchnorms(nn::Module& mod, nt::Rng& rng) {
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&mod)) {
    const auto buffers = bn->local_buffers();  // running mean, running var
    for (nt::index_t c = 0; c < bn->gamma().numel(); ++c) {
      (*buffers[0])[c] = rng.uniform(-0.1f, 0.1f);
      (*buffers[1])[c] = rng.uniform(0.5f, 1.5f);
      bn->gamma().value[c] = rng.uniform(0.75f, 1.25f);
      bn->beta().value[c] = rng.uniform(-0.1f, 0.1f);
    }
  }
  for (nn::Module* c : mod.children()) perturb_batchnorms(*c, rng);
}

std::unique_ptr<nn::Module> tiny_model(m::ModelKind kind, std::uint64_t seed) {
  nt::Rng rng(seed);
  auto model = m::make_model(kind, 32, 10, rng);
  perturb_batchnorms(*model, rng);
  model->train(false);
  return model;
}

/// bench_e2e's ledger stage of a plan row, joined on the row-name prefix.
std::size_t ledger_stage(const std::string& name, bool& seen_ode2) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (starts("stem conv")) return 0;
  if (starts("stem")) return 1;
  if (starts("ode1")) return 4;
  if (starts("ode2")) {
    seen_ode2 = true;
    return 6;
  }
  if (starts("downsample")) return seen_ode2 ? 7 : 5;
  if (starts("mhsa")) return 8;
  return 9;
}

}  // namespace

// Fixed logits are integer arithmetic on parameters folded and quantized in
// float; the goldens hold for the portable x86-64 build (-march=native turns
// on FMA contraction in the BatchNorm fold).
#if defined(NODETR_NATIVE_BUILD) || !defined(__x86_64__)
#define NODETR_SKIP_FIXED_GOLDENS() GTEST_SKIP() << "goldens are for the portable x86-64 build"
#else
#define NODETR_SKIP_FIXED_GOLDENS() (void)0
#endif

TEST(FixedGoldens, PaperModelLogitsBatch1) {
  NODETR_SKIP_FIXED_GOLDENS();
  core::LightweightTransformer model;
  nt::Rng rng(0x18);
  perturb_batchnorms(model.model(), rng);
  model.model().train(false);
  const auto x = rng.rand(nt::Shape{1, 3, 96, 96});
  hls::QuantizedExecutor exec(fx::scheme_32_24());
  const std::uint64_t fp = fnv1a(exec.run(model.model(), x));
  EXPECT_EQ(fp, 0xaeaf4be580a7e744ull) << "got 0x" << std::hex << fp;
}

TEST(FixedGoldens, TinyModelLogitsBatch2) {
  NODETR_SKIP_FIXED_GOLDENS();
  struct Golden {
    m::ModelKind kind;
    fx::QuantizationScheme scheme;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {m::ModelKind::kTinyProposed, fx::scheme_32_24(), 0xa3f2817b97d9f118ull},
      {m::ModelKind::kTinyProposed, fx::scheme_16_12(), 0xea3708a73e22ee9dull},
      {m::ModelKind::kTinyOdeNet, fx::scheme_32_24(), 0xcf6e11470639f551ull},
      {m::ModelKind::kTinyOdeNet, fx::scheme_16_12(), 0x79ac53043342248cull},
  };
  for (const auto& g : goldens) {
    auto model = tiny_model(g.kind, 0x19);
    nt::Rng rng(0x1a);
    const auto x = rng.rand(nt::Shape{2, 3, 32, 32});
    hls::QuantizedExecutor exec(g.scheme);
    const std::uint64_t fp = fnv1a(exec.run(*model, x));
    EXPECT_EQ(fp, g.fingerprint) << m::to_string(g.kind) << " " << g.scheme.to_string()
                                 << ", got 0x" << std::hex << fp;
  }
}

// The numbers bench_e2e joins its ledger on: MACs per ledger stage and the
// MHSA cycles of the paper configuration.
TEST(FixedGoldens, ProposedPlanStageMacsAndMhsaCycles) {
  const auto plan = hls::plan_proposed_model(96, 6, 128);
  std::array<std::int64_t, 10> macs{};
  bool seen_ode2 = false;
  for (const auto& row : plan.layers) macs[ledger_stage(row.name, seen_ode2)] += row.macs;
  const std::array<std::int64_t, 10> want{3981312, 0, 0, 0, 32292864,
                                          11796480, 30302208, 11796480, 7077888, 2560};
  for (std::size_t st = 0; st < macs.size(); ++st) {
    EXPECT_EQ(macs[st], want[st]) << "stage " << st;
  }
  EXPECT_EQ(plan.mhsa_cycles(), 7000140);
}

// Every row's MACs and cycles, in order.
TEST(FixedGoldens, ProposedPlanRows) {
  const auto plan = hls::plan_proposed_model(96, 6, 128);
  std::int64_t macs = 0;
  std::uint64_t fp = kFnvBasis;
  for (const auto& row : plan.layers) {
    macs += row.macs;
    const std::int64_t pair[2] = {row.macs, row.cycles};
    fp = fnv1a(pair, sizeof(pair), fp);
  }
  EXPECT_EQ(plan.layers.size(), 144u);
  EXPECT_EQ(macs, 97249792);
  EXPECT_EQ(plan.total_cycles(), 22673520);
  EXPECT_EQ(fp, 0xdf358c488cfc5c31ull) << "got 0x" << std::hex << fp;
}

// bench_e2e times the fixed datapath layer by layer: run_fixed over the
// OdeNet's top-level children, and over each OdeBlock's dynamics children
// with the fixed Euler update, must compose to run_fixed of the whole.
TEST(FixedGoldens, RunFixedComposesOverChildrenAndEulerSteps) {
  for (auto kind : {m::ModelKind::kTinyProposed, m::ModelKind::kTinyOdeNet}) {
    auto model = tiny_model(kind, 0x1b);
    nt::Rng rng(0x1c);
    hls::QuantizedExecutor exec(fx::scheme_32_24());
    const auto x = fx::FixedTensor::from_float(rng.rand(nt::Shape{2, 3, 32, 32}),
                                               exec.scheme().feature);
    const auto whole = exec.run_fixed(*model, x);

    auto kids = model->children().at(0)->children();
    fx::FixedTensor h = x;
    int blocks = 0;
    for (nn::Module* kid : kids) {
      if (auto* block = dynamic_cast<ode::OdeBlock*>(kid)) {
        const float step = (block->t1() - block->t0()) / static_cast<float>(block->steps());
        fx::FixedTensor z = h;
        for (nt::index_t j = 0; j < block->steps(); ++j) {
          fx::FixedTensor f = z;
          for (nn::Module* child : block->dynamics().children()) f = exec.run_fixed(*child, f);
          z = fx::qadd(z, fx::qscale(f, step));
        }
        EXPECT_TRUE(bitwise_equal(z, exec.run_fixed(*block, h)))
            << m::to_string(kind) << " block " << blocks;
        ++blocks;
      }
      h = exec.run_fixed(*kid, h);
    }
    EXPECT_EQ(blocks, 3);
    EXPECT_TRUE(bitwise_equal(h, whole)) << m::to_string(kind);
  }
}
