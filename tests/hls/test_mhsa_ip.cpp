#include "nodetr/hls/mhsa_ip.hpp"

#include <gtest/gtest.h>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/rng.hpp"

namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;

namespace {

nn::MhsaConfig module_cfg() {
  return {.dim = 16, .heads = 4, .height = 3, .width = 3,
          .attention = nn::AttentionKind::kRelu, .pos = nn::PosEncodingKind::kRelative2d,
          .layer_norm_out = true};
}

hls::MhsaDesignPoint matching_point(hls::DataType dtype) {
  hls::MhsaDesignPoint p;
  p.dim = 16;
  p.height = p.width = 3;
  p.heads = 4;
  p.dtype = dtype;
  return p;
}

}  // namespace

TEST(MhsaIp, FloatPathMatchesSoftwareModule) {
  nt::Rng rng(1);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  mhsa.train(false);
  auto x = rng.randn(nt::Shape{2, 16, 3, 3});
  auto sw = mhsa.forward(x);
  hls::MhsaIpCore ip(matching_point(hls::DataType::kFloat32),
                     hls::MhsaWeights::from_module(mhsa));
  auto hw = ip.run(x);
  EXPECT_TRUE(nt::allclose(hw, sw, 1e-4f, 1e-5f));
}

TEST(MhsaIp, FixedPathTracksFloatWithinQuantError) {
  nt::Rng rng(2);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  mhsa.train(false);
  auto x = rng.randn(nt::Shape{1, 16, 3, 3});
  auto sw = mhsa.forward(x);
  auto point = matching_point(hls::DataType::kFixed);  // 32(16)-24(8)
  hls::MhsaIpCore ip(point, hls::MhsaWeights::from_module(mhsa));
  auto hw = ip.run(x);
  // Paper (Table VIII): 32(16)-24(8) shows no degradation.
  EXPECT_LT(nt::max_abs_diff(hw, sw), 5e-3f);
}

TEST(MhsaIp, FixedErrorGrowsAsFormatsNarrow) {
  // Fig. 9/10 premise: value differences grow monotonically as the format
  // narrows, exploding for 16(8)-12(4).
  nt::Rng rng(3);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  mhsa.train(false);
  auto x = rng.randn(nt::Shape{1, 16, 3, 3});
  auto sw = mhsa.forward(x);
  float prev = -1.0f;
  for (const auto& scheme : fx::table8_schemes()) {
    auto point = matching_point(hls::DataType::kFixed);
    point.scheme = scheme;
    hls::MhsaIpCore ip(point, hls::MhsaWeights::from_module(mhsa));
    const float err = nt::mean_abs_diff(ip.run(x), sw);
    EXPECT_GE(err, prev * 0.5f) << scheme.to_string();  // allow small non-monotone noise
    prev = std::max(prev, err);
  }
  EXPECT_GT(prev, 1e-3f);  // the narrowest format has visible error
}

TEST(MhsaIp, DeterministicAcrossRuns) {
  nt::Rng rng(4);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  auto x = rng.randn(nt::Shape{1, 16, 3, 3});
  hls::MhsaIpCore ip(matching_point(hls::DataType::kFixed), hls::MhsaWeights::from_module(mhsa));
  auto a = ip.run(x);
  auto b = ip.run(x);
  EXPECT_TRUE(nt::allclose(a, b, 0.0f, 0.0f));
}

TEST(MhsaIp, CyclesScaleWithBatch) {
  nt::Rng rng(5);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  hls::MhsaIpCore ip(matching_point(hls::DataType::kFixed), hls::MhsaWeights::from_module(mhsa));
  ip.run(rng.randn(nt::Shape{1, 16, 3, 3}));
  const auto one = ip.last_cycles().total();
  ip.run(rng.randn(nt::Shape{3, 16, 3, 3}));
  EXPECT_EQ(ip.last_cycles().total(), 3 * one);
}

TEST(MhsaIp, Rank3InputSqueezed) {
  nt::Rng rng(6);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  hls::MhsaIpCore ip(matching_point(hls::DataType::kFloat32), hls::MhsaWeights::from_module(mhsa));
  auto y = ip.run(rng.randn(nt::Shape{16, 3, 3}));
  EXPECT_EQ(y.shape(), (nt::Shape{16, 3, 3}));
}

TEST(MhsaIp, RejectsGeometryMismatch) {
  nt::Rng rng(7);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  hls::MhsaIpCore ip(matching_point(hls::DataType::kFloat32), hls::MhsaWeights::from_module(mhsa));
  EXPECT_THROW(ip.run(nt::Tensor(nt::Shape{1, 16, 4, 4})), std::invalid_argument);
  auto bad_point = matching_point(hls::DataType::kFloat32);
  bad_point.dim = 32;
  EXPECT_THROW(hls::MhsaIpCore(bad_point, hls::MhsaWeights::from_module(mhsa)),
               std::invalid_argument);
}

TEST(MhsaIp, DmaBytesAccountsAllStreams) {
  nt::Rng rng(8);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  hls::MhsaIpCore ip(matching_point(hls::DataType::kFixed), hls::MhsaWeights::from_module(mhsa));
  // in/out: 2*9*16; weights 3*16*16; rel 4*(3+3)*4; ln 2*16 — all x4 bytes.
  const std::int64_t words = 2 * 9 * 16 + 3 * 16 * 16 + 4 * 6 * 4 + 32;
  EXPECT_EQ(ip.dma_bytes_per_image(), words * 4);
}

TEST(MhsaIp, OverrideHookRoutesModuleThroughIp) {
  nt::Rng rng(9);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  mhsa.train(false);
  auto x = rng.randn(nt::Shape{1, 16, 3, 3});
  auto sw = mhsa.forward(x);
  auto ip = std::make_shared<hls::MhsaIpCore>(matching_point(hls::DataType::kFloat32),
                                              hls::MhsaWeights::from_module(mhsa));
  mhsa.set_forward_override(
      [ip](const nt::Tensor& in, nn::MultiHeadSelfAttention&) { return ip->run(in); });
  auto hw = mhsa.forward(x);
  EXPECT_TRUE(nt::allclose(hw, sw, 1e-4f, 1e-5f));
  EXPECT_THROW(mhsa.backward(nt::Tensor(sw.shape())), std::logic_error);
  mhsa.clear_forward_override();
  EXPECT_FALSE(mhsa.has_forward_override());
}

namespace {

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Fingerprint of one fixed IP core: run() on a batch of two maps (float
/// output bits), then run_fixed_tokens() on the first map (raw codes).
std::uint64_t fixed_ip_fingerprint(hls::MhsaDesignPoint point, hls::WeightWire wire) {
  point.wire = wire;
  nt::Rng rng(0x5eed);
  nn::MultiHeadSelfAttention mhsa({.dim = point.dim, .heads = point.heads,
                                   .height = point.height, .width = point.width},
                                  rng);
  hls::MhsaIpCore ip(point, hls::MhsaWeights::from_module(mhsa));
  const auto x = rng.randn(nt::Shape{2, point.dim, point.height, point.width});
  const auto y = ip.run(x);
  std::uint64_t h = fnv1a(y.data(), static_cast<std::size_t>(y.numel()) * sizeof(float));
  const auto tokens = rng.randn(nt::Shape{point.tokens(), point.dim});
  const auto codes =
      ip.run_fixed_tokens(fx::FixedTensor::from_float(tokens, point.scheme.feature));
  return fnv1a(codes.raw(), static_cast<std::size_t>(codes.numel()) * sizeof(std::int64_t), h);
}

}  // namespace

// Golden fingerprints captured from the __int128 reference datapath: every
// fixed output bit of both paper design points, on every weight wire.
TEST(MhsaIp, FixedOutputsMatchGoldenFingerprints) {
  struct Case {
    const char* name;
    hls::MhsaDesignPoint point;
    hls::WeightWire wire;
    std::uint64_t golden;
  };
  const auto p64 = hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed);
  const auto b512 = hls::MhsaDesignPoint::botnet_512(hls::DataType::kFixed);
  const Case cases[] = {
      {"proposed_64/word32", p64, hls::WeightWire::kWord32, 0xbe6d0ff5a38f242eull},
      {"proposed_64/int8", p64, hls::WeightWire::kBlockInt8, 0xe31ab3a9d1f5f96bull},
      {"proposed_64/int4", p64, hls::WeightWire::kBlockInt4, 0x4f0054e6b2d9aa05ull},
      {"botnet_512/word32", b512, hls::WeightWire::kWord32, 0x9fe9f29f181100deull},
      {"botnet_512/int8", b512, hls::WeightWire::kBlockInt8, 0xa759b4e6827134fcull},
      {"botnet_512/int4", b512, hls::WeightWire::kBlockInt4, 0x757e7c82260b3a92ull},
  };
  for (const auto& c : cases) {
    const std::uint64_t got = fixed_ip_fingerprint(c.point, c.wire);
    EXPECT_EQ(got, c.golden) << c.name << " got 0x" << std::hex << got;
  }
}

// The proposed_64 IP's GEMMs (36x64x64 and smaller) are below the pool's
// fork/join grain, so a fixed run() stays on the calling thread: concurrent
// serving workers never serialise on the global pool.
TEST(MhsaIp, Proposed64FixedRunForksNoPoolWork) {
  nt::Rng rng(10);
  nn::MultiHeadSelfAttention mhsa({}, rng);
  hls::MhsaIpCore ip(hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed),
                     hls::MhsaWeights::from_module(mhsa));
  const auto x = rng.randn(nt::Shape{2, 64, 6, 6});
  auto& runs = nodetr::obs::Registry::instance().counter("tensor.pool.runs");
  const std::int64_t before = runs.value();
  const auto y = ip.run(x);
  EXPECT_EQ(runs.value(), before);
  EXPECT_EQ(y.shape(), x.shape());
}
