// Inference forward: under an InferenceScope every module kind computes the
// same output bits, records no backward state, and a later backward() is a
// typed NoBackwardState error instead of a read of stale state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>

#include "nodetr/nn/nn.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;

namespace {

bool bitwise_equal(const nt::Tensor& a, const nt::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// One module kind: how to build it and the input shape it takes.
struct Case {
  const char* name;
  std::function<nn::ModulePtr(nt::Rng&)> make;
  nt::Shape input;
};

nn::MhsaConfig small_mhsa() {
  return {.dim = 8, .heads = 2, .height = 3, .width = 3};
}

std::vector<Case> module_cases() {
  const nt::Shape map{2, 3, 5, 5};
  return {
      {"ReLU", [](nt::Rng&) { return std::make_unique<nn::ReLU>(); }, map},
      {"GELU", [](nt::Rng&) { return std::make_unique<nn::GELU>(); }, nt::Shape{2, 5}},
      {"BatchNorm2d", [](nt::Rng&) { return std::make_unique<nn::BatchNorm2d>(3); }, map},
      {"LayerNorm", [](nt::Rng&) { return std::make_unique<nn::LayerNorm>(5); }, nt::Shape{2, 5}},
      {"MaxPool2d", [](nt::Rng&) { return std::make_unique<nn::MaxPool2d>(3, 2, 1); }, map},
      {"AvgPool2d", [](nt::Rng&) { return std::make_unique<nn::AvgPool2d>(3, 2, 1); }, map},
      {"GlobalAvgPool", [](nt::Rng&) { return std::make_unique<nn::GlobalAvgPool>(); }, map},
      {"Conv2d",
       [](nt::Rng& rng) { return std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, true, rng); }, map},
      {"DepthwiseSeparableConv",
       [](nt::Rng& rng) {
         return std::make_unique<nn::DepthwiseSeparableConv>(3, 4, 3, 1, 1, rng);
       },
       map},
      {"Linear", [](nt::Rng& rng) { return std::make_unique<nn::Linear>(5, 4, true, rng); },
       nt::Shape{2, 5}},
      {"Dropout", [](nt::Rng&) { return std::make_unique<nn::Dropout>(0.5f); }, nt::Shape{2, 5}},
      {"Sequential",
       [](nt::Rng& rng) {
         auto seq = std::make_unique<nn::Sequential>();
         seq->emplace<nn::Conv2d>(3, 4, 3, 1, 1, false, rng);
         seq->emplace<nn::BatchNorm2d>(4);
         seq->emplace<nn::ReLU>();
         return seq;
       },
       map},
      {"Residual",
       [](nt::Rng& rng) {
         return std::make_unique<nn::Residual>(
             std::make_unique<nn::Conv2d>(3, 3, 3, 1, 1, false, rng));
       },
       map},
      {"MultiHeadSelfAttention",
       [](nt::Rng& rng) { return std::make_unique<nn::MultiHeadSelfAttention>(small_mhsa(), rng); },
       nt::Shape{2, 8, 3, 3}},
      {"SeqMhsa", [](nt::Rng& rng) { return std::make_unique<nn::SeqMhsa>(8, 2, rng); },
       nt::Shape{2, 4, 8}},
      {"MhsaBlock",
       [](nt::Rng& rng) {
         return std::make_unique<nn::MhsaBlock>(
             nn::MhsaBlockConfig{.channels = 8, .bottleneck_dim = 8, .heads = 2, .height = 3,
                                 .width = 3},
             rng);
       },
       nt::Shape{2, 8, 3, 3}},
  };
}

}  // namespace

// Training forward, inference forward, backward: the backward must not read
// the state the training forward left, because the scope released it.
TEST(InferenceScope, BackwardAfterInferenceForwardThrowsForEveryModuleKind) {
  for (const auto& c : module_cases()) {
    nt::Rng rng(11);
    auto m = c.make(rng);
    const auto x = rng.randn(c.input);
    m->train(true);
    const auto y = m->forward(x);
    const auto g = rng.randn(y.shape());
    {
      const nn::InferenceScope inference(*m);
      (void)m->forward(x);
    }
    EXPECT_THROW((void)m->backward(g), nn::NoBackwardState) << c.name;
    // Recording resumes after the scope: a training step works again.
    (void)m->forward(x);
    EXPECT_NO_THROW((void)m->backward(g)) << c.name;
  }
}

TEST(InferenceScope, BackwardBeforeAnyForwardThrows) {
  for (const auto& c : module_cases()) {
    nt::Rng rng(12);
    auto m = c.make(rng);
    EXPECT_THROW((void)m->backward(rng.randn(c.input)), nn::NoBackwardState) << c.name;
  }
}

// The scope changes what is recorded, never what is computed: outputs equal
// an eval-mode forward outside any scope, bit for bit.
TEST(InferenceScope, OutputsBitwiseEqualEvalModeForwardForEveryModuleKind) {
  for (const auto& c : module_cases()) {
    nt::Rng rng(13);
    auto m = c.make(rng);
    const auto x = rng.randn(c.input);
    // Non-trivial BatchNorm running statistics.
    m->train(true);
    (void)m->forward(x);
    m->train(false);
    const auto want = m->forward(x);
    nt::Tensor got;
    {
      const nn::InferenceScope inference(*m);
      EXPECT_FALSE(m->training()) << c.name;
      EXPECT_FALSE(m->recording()) << c.name;
      got = m->forward(x);
    }
    EXPECT_TRUE(bitwise_equal(got, want)) << c.name;
    EXPECT_FALSE(m->training()) << c.name;
    EXPECT_TRUE(m->recording()) << c.name;
  }
}

TEST(InferenceScope, RestoresEachModulesFlagsIncludingMixedModes) {
  nt::Rng rng(14);
  nn::Sequential seq;
  auto& conv = seq.emplace<nn::Conv2d>(3, 4, 3, 1, 1, false, rng);
  auto& bn = seq.emplace<nn::BatchNorm2d>(4);
  seq.train(true);
  bn.train(false);  // a frozen BatchNorm inside a training model
  {
    const nn::InferenceScope outer(seq);
    EXPECT_FALSE(seq.training());
    EXPECT_FALSE(conv.training());
    EXPECT_FALSE(conv.recording());
    {
      const nn::InferenceScope inner(conv);  // nested scopes compose
    }
    EXPECT_FALSE(conv.recording());
    EXPECT_FALSE(conv.training());
  }
  EXPECT_TRUE(seq.training());
  EXPECT_TRUE(conv.training());
  EXPECT_FALSE(bn.training());
  EXPECT_TRUE(seq.recording());
  EXPECT_TRUE(conv.recording());
  EXPECT_TRUE(bn.recording());
}

TEST(InferenceScope, RestoresFlagsWhenTheForwardThrows) {
  nt::Rng rng(15);
  nn::Sequential seq;
  auto& conv = seq.emplace<nn::Conv2d>(3, 4, 3, 1, 1, false, rng);
  seq.emplace<nn::ReLU>();
  seq.train(true);
  auto run = [&] {
    const nn::InferenceScope inference(seq);
    return seq.forward(nt::Tensor(nt::Shape{1, 5, 4, 4}));  // wrong channel count
  };
  EXPECT_THROW((void)run(), std::invalid_argument);
  EXPECT_TRUE(seq.training());
  EXPECT_TRUE(conv.training());
  EXPECT_TRUE(conv.recording());
}

// ---- MHSA ----------------------------------------------------------------

namespace {

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const nt::Tensor& t, std::uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Output bits, then every head's attention weights, of one forward.
std::uint64_t mhsa_fingerprint(const nt::Tensor& y, const nn::MultiHeadSelfAttention& mhsa,
                               nt::index_t batch) {
  std::uint64_t h = fnv1a(y, 1469598103934665603ull);
  for (nt::index_t s = 0; s < batch; ++s) {
    for (nt::index_t head = 0; head < mhsa.config().heads; ++head) {
      h = fnv1a(mhsa.attention_weights(s, head), h);
    }
  }
  return h;
}

}  // namespace

// Golden fingerprints of the paper-size MHSA (D=64, 4 heads, 6x6) captured
// from the implementation before the inference-forward rewrite (permute
// transposes, per-(sample, head) R_h rebuilds, serial head loop). Float bits
// depend on the GEMM microkernel's arithmetic only (every AVX2 kernel gives
// the same bits, the scalar kernel others); the float code is built with
// -ffp-contract=off, so a -DNODETR_NATIVE=ON build gives them too.
TEST(MhsaInference, ForwardMatchesGoldenFingerprints) {
#ifndef __x86_64__
  GTEST_SKIP() << "golden fingerprints are for x86-64";
#else
  const std::string_view kernel = nt::tune::gemm_config().kernel->name;
  const bool avx2 = kernel.substr(0, 5) == "avx2_";
  if (!avx2 && kernel != "scalar_4x8") GTEST_SKIP() << "no goldens for kernel " << kernel;
  struct Golden {
    nn::AttentionKind attention;
    nn::PosEncodingKind pos;
    nt::index_t batch;
    std::uint64_t avx2, scalar;
  };
  using A = nn::AttentionKind;
  using P = nn::PosEncodingKind;
  const Golden goldens[] = {
      {A::kSoftmax, P::kRelative2d, 1, 0x3ea7f00609eb8717ull, 0x8ea66caf16305a89ull},
      {A::kSoftmax, P::kRelative2d, 3, 0xa54296155cf5049cull, 0x6e19b2be52c166f5ull},
      {A::kSoftmax, P::kAbsoluteSinusoidal, 1, 0x91dd0f9017ad9ffaull, 0x787684be6be69f25ull},
      {A::kSoftmax, P::kAbsoluteSinusoidal, 3, 0x3928f2184c83bf8full, 0xfe88d1e157c0674aull},
      {A::kSoftmax, P::kNone, 1, 0x20e85dac93b507cfull, 0xb4445e44c1ddd5b9ull},
      {A::kSoftmax, P::kNone, 3, 0x7be9ff5a4bb2d12eull, 0xf9a8435a71e1a316ull},
      {A::kRelu, P::kRelative2d, 1, 0xa79d8c47ef9f7520ull, 0x16e2f9a52c296fdbull},
      {A::kRelu, P::kRelative2d, 3, 0x54bb4d1e2e44acfdull, 0xaaa4fc6290f773a4ull},
      {A::kRelu, P::kAbsoluteSinusoidal, 1, 0xf517723c98e90507ull, 0xb200da3f942ba54bull},
      {A::kRelu, P::kAbsoluteSinusoidal, 3, 0xb8a4035953e9f333ull, 0xa9f7a25881c41175ull},
      {A::kRelu, P::kNone, 1, 0xfdef5c1dfa7e78f5ull, 0x830168953605b42bull},
      {A::kRelu, P::kNone, 3, 0xbe55b3d43823a113ull, 0xa80aafb8228c7f7aull},
  };
  for (const auto& g : goldens) {
    nt::Rng rng(0x90d + g.batch);
    nn::MultiHeadSelfAttention mhsa({.attention = g.attention, .pos = g.pos}, rng);
    const auto& cfg = mhsa.config();
    const auto x = rng.randn(nt::Shape{g.batch, cfg.dim, cfg.height, cfg.width});
    const std::uint64_t want = avx2 ? g.avx2 : g.scalar;
    mhsa.train(false);
    const auto y = mhsa.forward(x);
    const std::uint64_t eval_fp = mhsa_fingerprint(y, mhsa, g.batch);
    const float eval_sparsity = mhsa.last_attention_sparsity();
    nt::Tensor y_scoped;
    {
      const nn::InferenceScope inference(mhsa);
      y_scoped = mhsa.forward(x);
    }
    const std::string label = mhsa.name() + " batch " + std::to_string(g.batch);
    EXPECT_EQ(eval_fp, want) << label << " got 0x" << std::hex << eval_fp;
    EXPECT_EQ(mhsa_fingerprint(y_scoped, mhsa, g.batch), want) << label;
    EXPECT_EQ(mhsa.last_attention_sparsity(), eval_sparsity) << label;
  }
#endif
}

// The proposed-config MHSA at batch 1 forks the global pool once: one
// parallel pass over its (sample, head) tasks. Its GEMMs (36x64x64 and
// smaller, all under 2^18 MACs) run on the calling thread. Before the
// inference-forward rewrite the same forward made 11 pool runs with the
// avx2_6x16 kernel.
TEST(MhsaInference, ProposedConfigBatch1ForwardIsOnePoolRun) {
  nt::Rng rng(16);
  nn::MultiHeadSelfAttention mhsa({}, rng);
  const auto x = rng.randn(nt::Shape{1, 64, 6, 6});
  auto& runs = nodetr::obs::Registry::instance().counter("tensor.pool.runs");
  const nn::InferenceScope inference(mhsa);
  const std::int64_t before = runs.value();
  (void)mhsa.forward(x);
  const std::int64_t want = nt::ThreadPool::global().size() > 1 ? 1 : 0;
  EXPECT_EQ(runs.value() - before, want);
}

// ---- MaxPool -------------------------------------------------------------

namespace {

/// Direct max pooling: the output and, per output, the flat input index of
/// the first maximum in row-major tap order (-1 for an all-padding window).
std::pair<nt::Tensor, std::vector<nt::index_t>> reference_maxpool(const nt::Tensor& x,
                                                                  nt::index_t k, nt::index_t s,
                                                                  nt::index_t p) {
  const nt::index_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const nt::index_t ho = (h + 2 * p - k) / s + 1, wo = (w + 2 * p - k) / s + 1;
  nt::Tensor out(nt::Shape{b, c, ho, wo});
  std::vector<nt::index_t> arg;
  for (nt::index_t bc = 0; bc < b * c; ++bc) {
    for (nt::index_t oy = 0; oy < ho; ++oy) {
      for (nt::index_t ox = 0; ox < wo; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        nt::index_t besti = -1;
        for (nt::index_t ky = 0; ky < k; ++ky) {
          for (nt::index_t kx = 0; kx < k; ++kx) {
            const nt::index_t iy = oy * s + ky - p, ix = ox * s + kx - p;
            if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
            const nt::index_t i = (bc * h + iy) * w + ix;
            if (x[i] > best) {
              best = x[i];
              besti = i;
            }
          }
        }
        out[static_cast<nt::index_t>(arg.size())] = best;
        arg.push_back(besti);
      }
    }
  }
  return {out, arg};
}

}  // namespace

// Output bits (scoped and recording) and the recorded argmax — observed
// through backward — match direct pooling for every padding and stride,
// including tied maxima, on enough planes to split across the pool.
TEST(MaxPoolInference, MatchesReferenceAcrossPaddingAndStride) {
  struct Geom {
    nt::index_t k, s, p;
  };
  const Geom geoms[] = {{1, 1, 0}, {2, 2, 0}, {2, 1, 1}, {3, 1, 1},
                        {3, 2, 0}, {3, 2, 1}, {3, 3, 0}, {3, 2, 2}};
  nt::Rng rng(17);
  // Integer-valued inputs make tied maxima common.
  auto x = rng.randn(nt::Shape{3, 24, 13, 11}, 0.0f, 2.0f);
  for (nt::index_t i = 0; i < x.numel(); ++i) x[i] = std::floor(x[i]);
  for (const auto& g : geoms) {
    const std::string label = "k" + std::to_string(g.k) + " s" + std::to_string(g.s) + " p" +
                              std::to_string(g.p);
    const auto [want, arg] = reference_maxpool(x, g.k, g.s, g.p);
    nn::MaxPool2d pool(g.k, g.s, g.p);
    nt::Tensor scoped;
    {
      const nn::InferenceScope inference(pool);
      scoped = pool.forward(x);
    }
    EXPECT_TRUE(bitwise_equal(scoped, want)) << label;
    const auto recorded = pool.forward(x);
    EXPECT_TRUE(bitwise_equal(recorded, want)) << label;
    // Distinct cotangents, so each input's gradient names its argmax outputs.
    auto gy = nt::Tensor::arange(want.numel()).reshape(want.shape());
    const auto gx = pool.backward(gy);
    nt::Tensor gx_want(x.shape());
    for (std::size_t o = 0; o < arg.size(); ++o) {
      if (arg[o] >= 0) gx_want[arg[o]] += gy[static_cast<nt::index_t>(o)];
    }
    EXPECT_TRUE(bitwise_equal(gx, gx_want)) << label;
  }
}

namespace {

/// Integer-valued input (many tied maxima) with +-0, NaN and +-inf
/// sprinkled in.
nt::Tensor maxpool_input(nt::Rng& rng, nt::Shape shape) {
  auto x = rng.randn(std::move(shape), 0.0f, 2.0f);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(), inf, -inf};
  for (nt::index_t i = 0; i < x.numel(); ++i) {
    x[i] = i % 11 == 3 ? specials[(i / 11) % 5] : std::floor(x[i]);
  }
  return x;
}

/// The scoped forward, the recording forward and its argmax (observed
/// through backward) of a 3x3 stride-2 pad-1 pool, against direct pooling.
void expect_maxpool3s2_matches_reference(const nt::Tensor& x, const std::string& label) {
  const auto [want, arg] = reference_maxpool(x, 3, 2, 1);
  nn::MaxPool2d pool(3, 2, 1);
  nt::Tensor scoped;
  {
    const nn::InferenceScope inference(pool);
    scoped = pool.forward(x);
  }
  EXPECT_TRUE(bitwise_equal(scoped, want)) << label;
  EXPECT_TRUE(bitwise_equal(pool.forward(x), want)) << label;
  auto gy = nt::Tensor::arange(want.numel()).reshape(want.shape());
  const auto gx = pool.backward(gy);
  nt::Tensor gx_want(x.shape());
  for (std::size_t o = 0; o < arg.size(); ++o) {
    if (arg[o] >= 0) gx_want[arg[o]] += gy[static_cast<nt::index_t>(o)];
  }
  EXPECT_TRUE(bitwise_equal(gx, gx_want)) << label;
}

}  // namespace

// The stem's 3x3 stride-2 pad-1 pool at output widths 8..17 (one vector and
// every overlapped tail), each from an odd and an even input width and
// height, so the -inf border is read on the right and bottom or not at all.
TEST(MaxPoolInference, StrideTwoPlaneMatchesReferenceAtEveryTail) {
  nt::Rng rng(18);
  for (nt::index_t wo = 8; wo <= 17; ++wo) {
    for (nt::index_t w : {2 * wo - 1, 2 * wo}) {
      for (nt::index_t h : {1, 6, 7}) {
        expect_maxpool3s2_matches_reference(
            maxpool_input(rng, nt::Shape{2, 3, h, w}),
            std::to_string(h) + "x" + std::to_string(w));
      }
    }
  }
}

// The paper's stem pool shape, 64x48x48, at batch 1 and 8.
TEST(MaxPoolInference, StrideTwoPlaneMatchesReferenceAtPaperShape) {
  nt::Rng rng(19);
  for (nt::index_t batch : {1, 8}) {
    expect_maxpool3s2_matches_reference(maxpool_input(rng, nt::Shape{batch, 64, 48, 48}),
                                        "batch " + std::to_string(batch));
  }
}
