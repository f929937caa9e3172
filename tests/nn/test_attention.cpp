#include "nodetr/nn/attention.hpp"

#include <gtest/gtest.h>

#include "../common/gradcheck.hpp"
#include "nodetr/nn/mhsa_block.hpp"
#include "nodetr/tensor/ops.hpp"

namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;

namespace {
nn::MhsaConfig small_cfg(nn::AttentionKind kind, nn::PosEncodingKind pos) {
  return {.dim = 8, .heads = 2, .height = 3, .width = 3, .attention = kind, .pos = pos,
          .layer_norm_out = true};
}
}  // namespace

TEST(Mhsa, OutputShapeMatchesInput) {
  nt::Rng rng(1);
  nn::MultiHeadSelfAttention mhsa(small_cfg(nn::AttentionKind::kRelu,
                                            nn::PosEncodingKind::kRelative2d), rng);
  auto x = rng.randn(nt::Shape{2, 8, 3, 3});
  EXPECT_EQ(mhsa.forward(x).shape(), x.shape());
}

TEST(Mhsa, RejectsMismatchedSpatialExtent) {
  nt::Rng rng(2);
  nn::MultiHeadSelfAttention mhsa(small_cfg(nn::AttentionKind::kRelu,
                                            nn::PosEncodingKind::kRelative2d), rng);
  EXPECT_THROW(mhsa.forward(nt::Tensor(nt::Shape{1, 8, 4, 4})), std::invalid_argument);
  EXPECT_THROW(mhsa.forward(nt::Tensor(nt::Shape{1, 4, 3, 3})), std::invalid_argument);
}

TEST(Mhsa, DimMustDivideHeads) {
  nt::Rng rng(3);
  nn::MhsaConfig bad{.dim = 7, .heads = 2, .height = 2, .width = 2};
  EXPECT_THROW(nn::MultiHeadSelfAttention(bad, rng), std::invalid_argument);
}

// A module built from another's weights is that module: same parameters,
// bitwise the same forward, under every positional encoding.
TEST(Mhsa, WeightsConstructorRebuildsTheModule) {
  nt::Rng rng(30);
  for (const auto pos : {nn::PosEncodingKind::kNone, nn::PosEncodingKind::kAbsoluteSinusoidal,
                         nn::PosEncodingKind::kRelative2d}) {
    const auto cfg = small_cfg(nn::AttentionKind::kRelu, pos);
    nn::MultiHeadSelfAttention drawn(cfg, rng);
    drawn.layer_norm()->gamma().value = rng.randn(nt::Shape{8});
    nn::MultiHeadSelfAttention rebuilt(cfg, nn::MhsaWeights::from_module(drawn));
    EXPECT_EQ(rebuilt.num_parameters(), drawn.num_parameters());
    const auto x = rng.randn(nt::Shape{2, 8, 3, 3});
    EXPECT_TRUE(nt::allclose(rebuilt.forward(x), drawn.forward(x), 0.0f, 0.0f));
  }
}

TEST(Mhsa, WeightsConstructorRejectsMismatchedTensors) {
  nt::Rng rng(31);
  const auto cfg = small_cfg(nn::AttentionKind::kRelu, nn::PosEncodingKind::kRelative2d);
  nn::MultiHeadSelfAttention drawn(cfg, rng);
  const nn::MhsaWeights good = nn::MhsaWeights::from_module(drawn);
  auto bad = good;
  bad.wk = nt::Tensor(nt::Shape{8, 4});
  EXPECT_THROW(nn::MultiHeadSelfAttention(cfg, bad), std::invalid_argument);
  bad = good;
  bad.ln_beta = nt::Tensor();
  EXPECT_THROW(nn::MultiHeadSelfAttention(cfg, bad), std::invalid_argument);
  auto no_rel = cfg;
  no_rel.pos = nn::PosEncodingKind::kNone;  // the relative tables must then be absent
  EXPECT_THROW(nn::MultiHeadSelfAttention(no_rel, good), std::invalid_argument);
}

TEST(Mhsa, ParameterCountReluRelative) {
  nt::Rng rng(4);
  auto cfg = small_cfg(nn::AttentionKind::kRelu, nn::PosEncodingKind::kRelative2d);
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  // 3 D*D projections + heads*(H+W)*Dh relative vectors + 2*D LayerNorm.
  const nt::index_t expected = 3 * 8 * 8 + 2 * (3 + 3) * 4 + 2 * 8;
  EXPECT_EQ(mhsa.num_parameters(), expected);
}

TEST(Mhsa, NoPosEncodingIsPermutationEquivariant) {
  // Without positional encoding, self-attention is equivariant: permuting the
  // spatial tokens permutes the outputs identically (Sec. III-A3).
  nt::Rng rng(5);
  nn::MhsaConfig cfg{.dim = 8, .heads = 2, .height = 2, .width = 2,
                     .attention = nn::AttentionKind::kSoftmax,
                     .pos = nn::PosEncodingKind::kNone, .layer_norm_out = false};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  auto x = rng.randn(nt::Shape{1, 8, 2, 2});
  auto y = mhsa.forward(x);
  // Swap tokens (0,0) <-> (1,1) in the input.
  auto xs = x;
  for (nt::index_t c = 0; c < 8; ++c) std::swap(xs.at(0, c, 0, 0), xs.at(0, c, 1, 1));
  auto ys = mhsa.forward(xs);
  for (nt::index_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(ys.at(0, c, 1, 1), y.at(0, c, 0, 0), 1e-4f);
    EXPECT_NEAR(ys.at(0, c, 0, 0), y.at(0, c, 1, 1), 1e-4f);
  }
}

TEST(Mhsa, RelativePosEncodingBreaksEquivariance) {
  nt::Rng rng(6);
  nn::MhsaConfig cfg{.dim = 8, .heads = 2, .height = 2, .width = 2,
                     .attention = nn::AttentionKind::kSoftmax,
                     .pos = nn::PosEncodingKind::kRelative2d, .layer_norm_out = false};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  auto x = rng.randn(nt::Shape{1, 8, 2, 2});
  auto y = mhsa.forward(x);
  auto xs = x;
  for (nt::index_t c = 0; c < 8; ++c) std::swap(xs.at(0, c, 0, 0), xs.at(0, c, 1, 1));
  auto ys = mhsa.forward(xs);
  float diff = 0.0f;
  for (nt::index_t c = 0; c < 8; ++c) {
    diff += std::fabs(ys.at(0, c, 1, 1) - y.at(0, c, 0, 0));
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(Mhsa, RelativeMatrixIsRowPlusColumn) {
  nt::Rng rng(7);
  auto cfg = small_cfg(nn::AttentionKind::kRelu, nn::PosEncodingKind::kRelative2d);
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  auto r = mhsa.relative_matrix(0);
  EXPECT_EQ(r.shape(), (nt::Shape{9, 4}));
  // R[(y,x)] - R[(y,x')] must be independent of y (it equals Rw[x]-Rw[x']).
  auto d1 = r.slice0(0, 1) - r.slice0(1, 2);   // y=0: x=0 vs x=1
  auto d2 = r.slice0(3, 4) - r.slice0(4, 5);   // y=1: x=0 vs x=1
  EXPECT_TRUE(nt::allclose(d1, d2, 1e-5f, 1e-6f));
}

TEST(Mhsa, SoftmaxAttentionRowsSumToOneImpliesBoundedOutput) {
  // With softmax attention and V bounded, outputs are convex combinations.
  nt::Rng rng(8);
  nn::MhsaConfig cfg{.dim = 4, .heads = 1, .height = 2, .width = 2,
                     .attention = nn::AttentionKind::kSoftmax,
                     .pos = nn::PosEncodingKind::kNone, .layer_norm_out = false};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  auto x = rng.randn(nt::Shape{1, 4, 2, 2});
  auto y = mhsa.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_LT(nt::max(nt::abs(y)), 100.0f);
}

TEST(Mhsa, ReluAttentionSparsifiesAttentionMap) {
  // [25]: ReLU attention zeroes out a substantial share of attention weights;
  // softmax never does.
  nt::Rng rng(9);
  auto cfg_relu = small_cfg(nn::AttentionKind::kRelu, nn::PosEncodingKind::kRelative2d);
  auto cfg_soft = small_cfg(nn::AttentionKind::kSoftmax, nn::PosEncodingKind::kRelative2d);
  nn::MultiHeadSelfAttention relu_attn(cfg_relu, rng);
  nn::MultiHeadSelfAttention soft_attn(cfg_soft, rng);
  auto x = rng.randn(nt::Shape{2, 8, 3, 3});
  relu_attn.forward(x);
  soft_attn.forward(x);
  EXPECT_GT(relu_attn.last_attention_sparsity(), 0.1f);
  EXPECT_EQ(soft_attn.last_attention_sparsity(), 0.0f);
}

TEST(Mhsa, GradCheckReluRelativeLayerNorm) {
  nt::Rng rng(10);
  nn::MhsaConfig cfg{.dim = 4, .heads = 2, .height = 2, .width = 2,
                     .attention = nn::AttentionKind::kRelu,
                     .pos = nn::PosEncodingKind::kRelative2d, .layer_norm_out = true};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  auto x = rng.randn(nt::Shape{2, 4, 2, 2});
  // Smaller eps than the default: ReLU-attention logits sit near the kink and
  // a 1e-2 step can cross it, corrupting the numerical reference.
  nodetr::testing::expect_gradients_match(mhsa, x, /*seed=*/77, /*checks=*/6, /*eps=*/2e-3f,
                                          /*tol=*/6e-2f);
}

TEST(Mhsa, GradCheckSoftmaxAbsolute) {
  nt::Rng rng(11);
  nn::MhsaConfig cfg{.dim = 4, .heads = 1, .height = 2, .width = 2,
                     .attention = nn::AttentionKind::kSoftmax,
                     .pos = nn::PosEncodingKind::kAbsoluteSinusoidal, .layer_norm_out = false};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  auto x = rng.randn(nt::Shape{1, 4, 2, 2});
  nodetr::testing::expect_gradients_match(mhsa, x, /*seed=*/78, /*checks=*/6, /*eps=*/1e-2f,
                                          /*tol=*/6e-2f);
}

TEST(MhsaBlock, PreservesShapeAndBottlenecks) {
  nt::Rng rng(12);
  nn::MhsaBlockConfig cfg{.channels = 16, .bottleneck_dim = 8, .heads = 2, .height = 3,
                          .width = 3};
  nn::MhsaBlock block(cfg, rng);
  auto x = rng.randn(nt::Shape{2, 16, 3, 3});
  EXPECT_EQ(block.forward(x).shape(), x.shape());
  EXPECT_EQ(block.mhsa().config().dim, 8);
}

TEST(MhsaBlock, ParameterCount) {
  nt::Rng rng(13);
  nn::MhsaBlockConfig cfg{.channels = 16, .bottleneck_dim = 8, .heads = 2, .height = 3,
                          .width = 3};
  nn::MhsaBlock block(cfg, rng);
  // bn_in 2*16 + reduce 16*8 + bn_mid 2*8 + mhsa(3*64 + 2*(3+3)*4 + 2*8)
  // + expand 8*16.
  const nt::index_t expected = 32 + 128 + 16 + (192 + 48 + 16) + 128;
  EXPECT_EQ(block.num_parameters(), expected);
}

TEST(MhsaBlock, GradCheck) {
  nt::Rng rng(14);
  nn::MhsaBlockConfig cfg{.channels = 8, .bottleneck_dim = 4, .heads = 2, .height = 2,
                          .width = 2};
  nn::MhsaBlock block(cfg, rng);
  block.train(true);
  auto x = rng.randn(nt::Shape{2, 8, 2, 2});
  nodetr::testing::expect_gradients_match(block, x, /*seed=*/79, /*checks=*/5, /*eps=*/1e-2f,
                                          /*tol=*/8e-2f);
}

TEST(Mhsa, AttentionWeightsAccessor) {
  nt::Rng rng(20);
  nn::MhsaConfig cfg{.dim = 8, .heads = 2, .height = 2, .width = 2,
                     .attention = nn::AttentionKind::kSoftmax,
                     .pos = nn::PosEncodingKind::kRelative2d, .layer_norm_out = false};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  mhsa.forward(rng.randn(nt::Shape{2, 8, 2, 2}));
  const auto& a = mhsa.attention_weights(1, 0);
  EXPECT_EQ(a.shape(), (nt::Shape{4, 4}));
  for (nt::index_t r = 0; r < 4; ++r) {
    float s = 0.0f;
    for (nt::index_t c = 0; c < 4; ++c) s += a.at(r, c);
    EXPECT_NEAR(s, 1.0f, 1e-5f);  // softmax rows are distributions
  }
  EXPECT_THROW((void)mhsa.attention_weights(2, 0), std::out_of_range);
  EXPECT_THROW((void)mhsa.attention_weights(0, 2), std::out_of_range);
}

TEST(Mhsa, ReluAttentionWeightsNonNegative) {
  nt::Rng rng(21);
  nn::MhsaConfig cfg{.dim = 8, .heads = 2, .height = 2, .width = 2,
                     .attention = nn::AttentionKind::kRelu,
                     .pos = nn::PosEncodingKind::kRelative2d, .layer_norm_out = true};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  mhsa.forward(rng.randn(nt::Shape{1, 8, 2, 2}));
  const auto& a = mhsa.attention_weights(0, 1);
  for (nt::index_t i = 0; i < a.numel(); ++i) EXPECT_GE(a[i], 0.0f);
}
