// The float conv inference path: BatchNorm2d's eval pass with a merged ReLU,
// in place where a Sequential owns the activation, and the one-call
// depthwise-separable forward. Every output is checked bitwise against the
// modules' own recording forwards, run one child at a time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nodetr/nn/activations.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/norm.hpp"
#include "nodetr/nn/sequential.hpp"
#include "nodetr/tensor/parallel.hpp"
#include "nodetr/tensor/rng.hpp"

namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
using nt::index_t;
using nt::Tensor;

namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// Non-trivial running statistics and affine parameters.
void randomize(nn::BatchNorm2d& bn, nt::Rng& rng) {
  const auto buffers = bn.local_buffers();  // running mean, running var
  for (index_t c = 0; c < bn.gamma().numel(); ++c) {
    (*buffers[0])[c] = rng.uniform(-0.5f, 0.5f);
    (*buffers[1])[c] = rng.uniform(0.25f, 2.0f);
    bn.gamma().value[c] = rng.uniform(0.5f, 1.5f);
    bn.beta().value[c] = rng.uniform(-0.5f, 0.5f);
  }
}

void randomize_batchnorms(nn::Sequential& seq, nt::Rng& rng) {
  for (nn::Module* m : seq.children()) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(m)) randomize(*bn, rng);
  }
}

/// Input with signed zeros sprinkled in.
Tensor test_input(nt::Rng& rng, nt::Shape shape) {
  Tensor x = rng.randn(std::move(shape));
  for (index_t i = 0; i < x.numel(); i += 5) x[i] = (i / 5) % 2 == 0 ? -0.0f : 0.0f;
  return x;
}

/// Each child's own recording eval-mode forward, one at a time: the
/// activations before any merging.
std::vector<Tensor> child_by_child(nn::Sequential& seq, const Tensor& x) {
  seq.train(false);
  std::vector<Tensor> acts;
  Tensor h = x;
  for (nn::Module* m : seq.children()) {
    h = m->forward(h);
    acts.push_back(h);
  }
  return acts;
}

}  // namespace

// eval_into, out of place and aliased, with and without ReLU, is bitwise
// the recording eval forward followed by ReLU's forward; below and above the
// size where the pass splits across the pool.
TEST(BatchNormEvalInto, BitwiseEqualToForwardThenRelu) {
  nt::Rng rng(1801);
  for (const nt::Shape& shape : {nt::Shape{2, 5, 3, 4}, nt::Shape{8, 64, 24, 24}}) {
    nn::BatchNorm2d bn(shape[1]);
    randomize(bn, rng);
    bn.train(false);
    nn::ReLU relu;
    const Tensor x = test_input(rng, shape);
    const Tensor want_bn = bn.forward(x);
    const Tensor want_relu = relu.forward(want_bn);
    for (bool with_relu : {false, true}) {
      const Tensor& want = with_relu ? want_relu : want_bn;
      const std::string label = shape.to_string() + " relu " + std::to_string(with_relu);
      Tensor out(shape);
      bn.eval_into(x, out, with_relu);
      EXPECT_TRUE(bitwise_equal(out, want)) << label << " out of place";
      Tensor aliased = x;
      bn.eval_into(aliased, aliased, with_relu);
      EXPECT_TRUE(bitwise_equal(aliased, want)) << label << " aliased";
    }
    const nn::InferenceScope inference(bn);
    EXPECT_TRUE(bitwise_equal(bn.forward(x), want_bn)) << shape.to_string() << " scoped";
  }
}

TEST(BatchNormEvalInto, RejectsMismatchedShapes) {
  nn::BatchNorm2d bn(3);
  Tensor out(nt::Shape{1, 3, 2, 2});
  EXPECT_THROW(bn.eval_into(Tensor(nt::Shape{1, 3, 2, 3}), out, false), std::invalid_argument);
  EXPECT_THROW(bn.eval_into(Tensor(nt::Shape{1, 4, 2, 2}), out, false), std::invalid_argument);
}

TEST(ReluEvalInto, BitwiseEqualToForwardInAndOutOfPlace) {
  nt::Rng rng(1802);
  const Tensor x = test_input(rng, nt::Shape{3, 4, 5, 6});
  nn::ReLU relu;
  const Tensor want = relu.forward(x);
  Tensor out(x.shape());
  nn::ReLU::eval_into(x, out);
  EXPECT_TRUE(bitwise_equal(out, want));
  Tensor aliased = x;
  nn::ReLU::eval_into(aliased, aliased);
  EXPECT_TRUE(bitwise_equal(aliased, want));
  Tensor short_out(nt::Shape{3});
  EXPECT_THROW(nn::ReLU::eval_into(x, short_out), std::invalid_argument);
}

// An inference Sequential merges BN with a following ReLU and runs both in
// place once it owns the activation. Its output is bitwise the child-by-child
// chain, and the caller's input is never written. The layouts cover BN as
// the first child (out of place), BN then BN, a lone ReLU first (not owned)
// and later (owned), and BN last.
TEST(SequentialInference, BitwiseEqualToChildByChildAndLeavesInputAlone) {
  nt::Rng rng(1803);
  auto dynamics = [&] {  // the dsODENet dynamics
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::BatchNorm2d>(8);
    s->emplace<nn::ReLU>();
    s->emplace<nn::DepthwiseSeparableConv>(8, 8, 3, 1, 1, rng);
    s->emplace<nn::BatchNorm2d>(8);
    s->emplace<nn::ReLU>();
    s->emplace<nn::DepthwiseSeparableConv>(8, 8, 3, 1, 1, rng);
    return s;
  };
  auto mixed = [&] {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::ReLU>();
    s->emplace<nn::BatchNorm2d>(8);
    s->emplace<nn::BatchNorm2d>(8);
    s->emplace<nn::ReLU>();
    s->emplace<nn::ReLU>();
    s->emplace<nn::Conv2d>(8, 6, 3, 2, 1, /*bias=*/false, rng);
    s->emplace<nn::ReLU>();
    s->emplace<nn::BatchNorm2d>(6);
    return s;
  };
  std::vector<std::unique_ptr<nn::Sequential>> seqs;
  seqs.push_back(dynamics());
  seqs.push_back(mixed());
  for (auto& seq : seqs) {
    randomize_batchnorms(*seq, rng);
    for (index_t batch : {1, 4}) {
      const Tensor x = test_input(rng, nt::Shape{batch, 8, 10, 10});
      const Tensor x_copy = x;
      const Tensor want = child_by_child(*seq, x).back();
      Tensor got;
      {
        const nn::InferenceScope inference(*seq);
        got = seq->forward(x);
      }
      EXPECT_TRUE(bitwise_equal(got, want)) << seq->name() << " batch " << batch;
      EXPECT_TRUE(bitwise_equal(x, x_copy)) << seq->name() << " wrote its input";
    }
  }
}

// Inference BN -> ReLU -> DSC runs BN and ReLU as the depthwise's input
// prologue. It is bitwise the unfused chain (BN's eval_into pass with ReLU,
// then the DSC's inference forward) on the zero-framed 3x3/1/1 path, on the
// generic path (stride 2, K = 5, and a 3x3/1/1 plane with a non-finite tap),
// at batch 1, 3 and 8, on the calling thread and inside a pool task. BN has
// running statistics away from (0, 1) and some negative gammas, so ReLU
// clamps on both sides of the mean. The caller's input is never written.
TEST(SequentialInference, BnReluDscPrologueBitwiseEqualToUnfused) {
  nt::Rng rng(1806);
  const struct {
    index_t kernel, stride, pad;
    bool non_finite_tap;
  } geoms[] = {{3, 1, 1, false}, {3, 2, 1, false}, {5, 1, 2, false}, {3, 1, 1, true}};
  constexpr index_t kC = 12, kCout = 10, kHw = 11;
  for (const auto& geo : geoms) {
    nn::Sequential seq;
    auto& bn = seq.emplace<nn::BatchNorm2d>(kC);
    seq.emplace<nn::ReLU>();
    auto& dsc = seq.emplace<nn::DepthwiseSeparableConv>(kC, kCout, geo.kernel, geo.stride,
                                                        geo.pad, rng);
    randomize(bn, rng);
    for (index_t c = 0; c < kC; c += 3) bn.gamma().value[c] = -bn.gamma().value[c];
    if (geo.non_finite_tap) dsc.dw_weight().value[4 * 9 + 4] = INFINITY;
    const std::string geom = "k" + std::to_string(geo.kernel) + " s" +
                             std::to_string(geo.stride) +
                             (geo.non_finite_tap ? " non-finite tap" : "");
    for (index_t batch : {1, 3, 8}) {
      const Tensor x = test_input(rng, nt::Shape{batch, kC, kHw, kHw});
      const Tensor x_copy = x;
      const nn::InferenceScope inference(seq);
      Tensor y(x.shape());
      bn.eval_into(x, y, /*relu=*/true);
      const Tensor want = dsc.forward(y);
      const std::string label = geom + " batch " + std::to_string(batch);
      EXPECT_TRUE(bitwise_equal(seq.forward(x), want)) << label;
      Tensor in_task;
      nt::ThreadPool::global().run_chunks(2, [&](std::size_t chunk) {
        if (chunk == 0) in_task = seq.forward(x);
      });
      EXPECT_TRUE(bitwise_equal(in_task, want)) << label << " in a pool task";
      EXPECT_TRUE(bitwise_equal(x, x_copy)) << label << " wrote its input";
    }
  }
}

// BN -> ReLU keeps its own pass where no DSC follows it: a dense conv, or a
// second ReLU before the DSC. Each layout is bitwise the child-by-child
// chain.
TEST(SequentialInference, BnReluWithoutFollowingDscKeepsItsPass) {
  nt::Rng rng(1807);
  auto conv_after = [&] {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::BatchNorm2d>(6);
    s->emplace<nn::ReLU>();
    s->emplace<nn::Conv2d>(6, 6, 3, 1, 1, /*bias=*/false, rng);
    return s;
  };
  auto relu_between = [&] {
    auto s = std::make_unique<nn::Sequential>();
    s->emplace<nn::BatchNorm2d>(6);
    s->emplace<nn::ReLU>();
    s->emplace<nn::ReLU>();
    s->emplace<nn::DepthwiseSeparableConv>(6, 6, 3, 1, 1, rng);
    return s;
  };
  std::vector<std::unique_ptr<nn::Sequential>> seqs;
  seqs.push_back(conv_after());
  seqs.push_back(relu_between());
  for (auto& seq : seqs) {
    randomize_batchnorms(*seq, rng);
    const Tensor x = test_input(rng, nt::Shape{2, 6, 9, 9});
    const Tensor want = child_by_child(*seq, x).back();
    const nn::InferenceScope inference(*seq);
    EXPECT_TRUE(bitwise_equal(seq->forward(x), want)) << seq->name();
  }
}

// A BN whose channel count does not match its input throws whether or not
// a DSC follows it.
TEST(SequentialInference, BnReluDscRejectsChannelMismatch) {
  nt::Rng rng(1808);
  nn::Sequential seq;
  seq.emplace<nn::BatchNorm2d>(4);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::DepthwiseSeparableConv>(8, 8, 3, 1, 1, rng);
  const nn::InferenceScope inference(seq);
  EXPECT_THROW((void)seq.forward(Tensor(nt::Shape{1, 8, 5, 5})), std::invalid_argument);
}

// The recording forward (depthwise planes kept for backward) and the
// inference forward (planes in scratch) give the same bits.
TEST(DscInference, RecordingAndInferenceForwardsBitwiseEqual) {
  nt::Rng rng(1805);
  for (auto [c, hw] : {std::pair<index_t, index_t>{64, 24}, {128, 12}, {5, 7}}) {
    nn::DepthwiseSeparableConv dsc(c, c, 3, 1, 1, rng);
    for (index_t batch : {1, 8}) {
      const Tensor x = test_input(rng, nt::Shape{batch, c, hw, hw});
      const Tensor recorded = dsc.forward(x);
      Tensor inferred;
      {
        const nn::InferenceScope inference(dsc);
        inferred = dsc.forward(x);
      }
      EXPECT_TRUE(bitwise_equal(recorded, inferred)) << c << "x" << hw << " batch " << batch;
    }
  }
}
