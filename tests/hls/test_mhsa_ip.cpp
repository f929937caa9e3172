#include "nodetr/hls/mhsa_ip.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nodetr/fx/block_quant.hpp"
#include "nodetr/fx/qmhsa.hpp"
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

/// The module's inference forward: what the float IP must reproduce bitwise.
nt::Tensor inference_forward(nn::MultiHeadSelfAttention& mhsa, const nt::Tensor& x) {
  const nn::InferenceScope inference(mhsa);
  return mhsa.forward(x);
}

}  // namespace

// The float32 IP runs the software module on its weights, so its output is
// bitwise the module's inference forward, at batch 1 and batch 8 and on the
// paper's (64, 6x6) point as on a small one.
TEST(MhsaIp, FloatPathMatchesSoftwareModule) {
  nt::Rng rng(1);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  auto x = rng.randn(nt::Shape{2, 16, 3, 3});
  hls::MhsaIpCore ip(matching_point(hls::DataType::kFloat32),
                     hls::MhsaWeights::from_module(mhsa));
  EXPECT_TRUE(nt::allclose(ip.run(x), inference_forward(mhsa, x), 0.0f, 0.0f));

  nn::MultiHeadSelfAttention paper({.dim = 64, .heads = 4, .height = 6, .width = 6}, rng);
  hls::MhsaIpCore paper_ip(hls::MhsaDesignPoint::proposed_64(hls::DataType::kFloat32),
                           hls::MhsaWeights::from_module(paper));
  for (const nt::index_t b : {1, 8}) {
    const auto xb = rng.randn(nt::Shape{b, 64, 6, 6});
    EXPECT_TRUE(nt::allclose(paper_ip.run(xb), inference_forward(paper, xb), 0.0f, 0.0f))
        << "batch " << b;
  }
}

// Each core builds only its own datapath: a float core has no fixed one, and
// only a float core runs the nn module.
TEST(MhsaIp, EachCoreRunsOnlyItsOwnDatapath) {
  nt::Rng rng(10);
  nn::MultiHeadSelfAttention mhsa(module_cfg(), rng);
  const auto x = rng.randn(nt::Shape{1, 16, 3, 3});
  auto& forwards = nodetr::obs::Registry::instance().counter("nn.mhsa.forwards");
  hls::MhsaIpCore flt(matching_point(hls::DataType::kFloat32),
                      hls::MhsaWeights::from_module(mhsa));
  EXPECT_THROW((void)flt.run_fixed_tokens(fx::FixedTensor(
                   nt::Shape{9, 16}, fx::scheme_32_24().feature)),
               std::logic_error);
  std::int64_t before = forwards.value();
  (void)flt.run(x);
  EXPECT_EQ(forwards.value() - before, 1);
  hls::MhsaIpCore fixed(matching_point(hls::DataType::kFixed),
                        hls::MhsaWeights::from_module(mhsa));
  before = forwards.value();
  (void)fixed.run(x);
  EXPECT_EQ(forwards.value(), before);
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
  (void)ip.run(rng.randn(nt::Shape{1, 16, 3, 3}));
  const auto one = ip.last_cycles().total();
  (void)ip.run(rng.randn(nt::Shape{3, 16, 3, 3}));
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
  EXPECT_TRUE(nt::allclose(hw, sw, 0.0f, 0.0f));
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
  const auto p64_at = [&](fx::QuantizationScheme scheme) {
    auto p = p64;
    p.scheme = scheme;
    return p;
  };
  const Case cases[] = {
      {"proposed_64/word32", p64, hls::WeightWire::kWord32, 0xbe6d0ff5a38f242eull},
      {"proposed_64/int8", p64, hls::WeightWire::kBlockInt8, 0xe31ab3a9d1f5f96bull},
      {"proposed_64/int4", p64, hls::WeightWire::kBlockInt4, 0x4f0054e6b2d9aa05ull},
      {"botnet_512/word32", b512, hls::WeightWire::kWord32, 0x9fe9f29f181100deull},
      {"botnet_512/int8", b512, hls::WeightWire::kBlockInt8, 0xa759b4e6827134fcull},
      {"botnet_512/int4", b512, hls::WeightWire::kBlockInt4, 0x757e7c82260b3a92ull},
      // The narrower Table VIII schemes, where saturation and rounding bite.
      {"proposed_64/word32/24(12)-20(6)", p64_at(fx::scheme_24_20()), hls::WeightWire::kWord32,
       0xf70da5f1218b9b2cull},
      {"proposed_64/word32/20(10)-16(4)", p64_at(fx::scheme_20_16()), hls::WeightWire::kWord32,
       0x9f4de1f1ffdd34d5ull},
      {"proposed_64/word32/18(9)-14(4)", p64_at(fx::scheme_18_14()), hls::WeightWire::kWord32,
       0xa564d51f553ad00bull},
      {"proposed_64/word32/16(8)-12(4)", p64_at(fx::scheme_16_12()), hls::WeightWire::kWord32,
       0xde69ebd51fa566a8ull},
  };
  for (const auto& c : cases) {
    const std::uint64_t got = fixed_ip_fingerprint(c.point, c.wire);
    EXPECT_EQ(got, c.golden) << c.name << " got 0x" << std::hex << got;
  }
}

// The fixed datapath runs on the calling thread at every batch size, so
// concurrent serving workers never serialise on the global pool. Batch 8 is
// the serving engine's max_batch: 288 token rows, whose QKV product would be
// above the pool's fork/join grain as one qmatmul.
TEST(MhsaIp, Proposed64FixedRunForksNoPoolWork) {
  nt::Rng rng(10);
  nn::MultiHeadSelfAttention mhsa({}, rng);
  const auto point = hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed);
  hls::MhsaIpCore ip(point, hls::MhsaWeights::from_module(mhsa));
  const auto x = rng.randn(nt::Shape{8, 64, 6, 6});
  const auto tokens =
      fx::FixedTensor::from_float(rng.randn(nt::Shape{8 * 36, 64}), point.scheme.feature);
  auto& runs = nodetr::obs::Registry::instance().counter("tensor.pool.runs");
  const std::int64_t before = runs.value();
  const auto y = ip.run(x);
  const auto codes = ip.run_fixed_tokens(tokens);
  EXPECT_EQ(runs.value(), before);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_EQ(codes.shape(), tokens.shape());
}

// ---- Differential: the fused datapath against the op-by-op chain ----------

namespace {

/// The IP's parameters in fixed point, prepared as MhsaIpCore's constructor
/// prepares them: round-tripped through a block-quantized wire, quantized
/// into the parameter format, R_h summed from the quantized tables.
struct QuantizedWeights {
  fx::FixedTensor wq, wk, wv;
  std::vector<fx::FixedTensor> rel;  ///< per head, (tokens, head_dim)
  fx::FixedTensor ln_gamma, ln_beta;
};

QuantizedWeights quantize_weights(const hls::MhsaDesignPoint& p, hls::MhsaWeights w) {
  if (p.wire != hls::WeightWire::kWord32) {
    const auto bt = p.wire == hls::WeightWire::kBlockInt8 ? fx::BlockType::kInt8
                                                          : fx::BlockType::kInt4;
    for (nt::Tensor* t : {&w.wq, &w.wk, &w.wv, &w.rel_h, &w.rel_w}) {
      if (!t->empty()) *t = fx::block_roundtrip(*t, bt, p.wire_block);
    }
  }
  const auto pf = p.scheme.param;
  QuantizedWeights q;
  q.wq = fx::FixedTensor::from_float(w.wq, pf);
  q.wk = fx::FixedTensor::from_float(w.wk, pf);
  q.wv = fx::FixedTensor::from_float(w.wv, pf);
  if (!w.rel_h.empty()) {
    const auto rh = fx::FixedTensor::from_float(w.rel_h, pf).to_float();
    const auto rw = fx::FixedTensor::from_float(w.rel_w, pf).to_float();
    const nt::index_t dh = p.head_dim();
    for (nt::index_t h = 0; h < p.heads; ++h) {
      nt::Tensor r(nt::Shape{p.tokens(), dh});
      for (nt::index_t y = 0; y < p.height; ++y) {
        for (nt::index_t x = 0; x < p.width; ++x) {
          for (nt::index_t c = 0; c < dh; ++c) {
            r[(y * p.width + x) * dh + c] =
                rh[(h * p.height + y) * dh + c] + rw[(h * p.width + x) * dh + c];
          }
        }
      }
      q.rel.push_back(fx::FixedTensor::from_float(r, pf));
    }
  }
  if (!w.ln_gamma.empty()) {
    q.ln_gamma = fx::FixedTensor::from_float(w.ln_gamma, pf);
    q.ln_beta = fx::FixedTensor::from_float(w.ln_beta, pf);
  }
  return q;
}

/// Columns [c0, c0 + cols) of a rank-2 tensor.
fx::FixedTensor cols_of(const fx::FixedTensor& m, nt::index_t c0, nt::index_t cols) {
  const nt::index_t rows = m.shape().dim(0), d = m.shape().dim(1);
  fx::FixedTensor out(nt::Shape{rows, cols}, m.format());
  for (nt::index_t r = 0; r < rows; ++r) {
    for (nt::index_t c = 0; c < cols; ++c) out[r * cols + c] = m[r * d + c0 + c];
  }
  return out;
}

/// The op-by-op fixed datapath on one image's tokens (N, D): three
/// projections, then per head qmatmul_nt, qmatmul with R_h, qadd, qscale,
/// qrelu and qmatmul, scattered into the head's columns, then LayerNorm.
fx::FixedTensor reference_tokens(const hls::MhsaDesignPoint& p, const QuantizedWeights& w,
                                 const fx::FixedTensor& x) {
  const auto ff = p.scheme.feature;
  const nt::index_t n = p.tokens(), d = p.dim, dh = p.head_dim();
  const auto q = fx::qmatmul(x, w.wq, ff);
  const auto k = fx::qmatmul(x, w.wk, ff);
  const auto v = fx::qmatmul(x, w.wv, ff);
  fx::FixedTensor out(nt::Shape{n, d}, ff);
  for (nt::index_t h = 0; h < p.heads; ++h) {
    const auto qh = cols_of(q, h * dh, dh);
    auto logits = fx::qmatmul_nt(qh, cols_of(k, h * dh, dh), ff);
    if (!w.rel.empty()) {
      logits = fx::qadd(logits, fx::qmatmul_nt(qh, w.rel[static_cast<std::size_t>(h)], ff));
    }
    logits = fx::qscale(logits, 1.0f / std::sqrt(static_cast<float>(dh)));
    const auto head = fx::qmatmul(fx::qrelu(logits), cols_of(v, h * dh, dh), ff);
    for (nt::index_t r = 0; r < n; ++r) {
      for (nt::index_t c = 0; c < dh; ++c) out[r * d + h * dh + c] = head[r * dh + c];
    }
  }
  if (!w.ln_gamma.empty()) out = fx::qlayernorm_rows(out, w.ln_gamma, w.ln_beta);
  return out;
}

/// (B, D, H, W) maps -> (B*N, D) token rows.
nt::Tensor maps_to_tokens(const nt::Tensor& x, nt::index_t d, nt::index_t n) {
  const nt::index_t b = x.dim(0);
  nt::Tensor t(nt::Shape{b * n, d});
  for (nt::index_t s = 0; s < b; ++s) {
    for (nt::index_t c = 0; c < d; ++c) {
      for (nt::index_t i = 0; i < n; ++i) t[(s * n + i) * d + c] = x[(s * d + c) * n + i];
    }
  }
  return t;
}

/// Rows [r0, r0 + rows) of a rank-2 tensor.
fx::FixedTensor rows_of(const fx::FixedTensor& m, nt::index_t r0, nt::index_t rows) {
  const nt::index_t d = m.shape().dim(1);
  fx::FixedTensor out(nt::Shape{rows, d}, m.format());
  std::copy(m.raw() + r0 * d, m.raw() + (r0 + rows) * d, out.raw());
  return out;
}

/// The reference over every image of a stacked token matrix.
fx::FixedTensor reference_stacked(const hls::MhsaDesignPoint& p, const QuantizedWeights& w,
                                  const fx::FixedTensor& x) {
  const nt::index_t n = p.tokens(), d = p.dim;
  fx::FixedTensor out(x.shape(), p.scheme.feature);
  for (nt::index_t r0 = 0; r0 < x.shape().dim(0); r0 += n) {
    const auto o = reference_tokens(p, w, rows_of(x, r0, n));
    std::copy(o.raw(), o.raw() + n * d, out.raw() + r0 * d);
  }
  return out;
}

/// Index of the first differing code, or -1.
nt::index_t first_diff(const fx::FixedTensor& a, const fx::FixedTensor& b) {
  if (a.numel() != b.numel()) return 0;
  for (nt::index_t i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return i;
  }
  return -1;
}

const char* form_name(fx::KernelForm f) {
  return f == fx::KernelForm::kAvx2 ? "avx2" : "portable";
}

/// Every check of one design point on `x` (B, D, H, W): run_fixed_tokens()
/// and every kernel form of the fused datapath code for code against the
/// chain, and run() float bit for bit against the chain's dequantized codes.
void expect_matches_chain(const hls::MhsaDesignPoint& point, const hls::MhsaWeights& weights,
                          const nt::Tensor& x, const std::string& name) {
  const auto ff = point.scheme.feature;
  hls::MhsaIpCore ip(point, weights);
  const QuantizedWeights qw = quantize_weights(point, weights);
  const auto tokens = fx::FixedTensor::from_float(maps_to_tokens(x, point.dim, point.tokens()), ff);
  const auto want = reference_stacked(point, qw, tokens);

  EXPECT_EQ(first_diff(ip.run_fixed_tokens(tokens), want), -1) << name << " run_fixed_tokens";
  const fx::QMhsa fused(qw.wq, qw.wk, qw.wv, qw.rel, qw.ln_gamma, qw.ln_beta, point.heads,
                        point.tokens(), ff,
                        1.0f / std::sqrt(static_cast<float>(point.head_dim())));
  for (const auto form : fx::kernel_forms()) {
    EXPECT_EQ(first_diff(fused.run(tokens, form), want), -1) << name << " " << form_name(form);
  }
  // run(): the chain's codes, dequantized and transposed back to maps.
  const nt::Tensor y = ip.run(x);
  const nt::Tensor want_tokens = want.to_float();
  const nt::index_t n = point.tokens(), d = point.dim;
  nt::index_t mismatches = 0;
  for (nt::index_t s = 0; s < x.dim(0); ++s) {
    for (nt::index_t c = 0; c < d; ++c) {
      for (nt::index_t i = 0; i < n; ++i) {
        const float a = y[(s * d + c) * n + i], b = want_tokens[(s * n + i) * d + c];
        mismatches += std::memcmp(&a, &b, sizeof(float)) != 0 ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << name << " run()";
}

nn::MhsaConfig config_of(const hls::MhsaDesignPoint& p) {
  return {.dim = p.dim, .heads = p.heads, .height = p.height, .width = p.width};
}

/// A module's weights with a trained-looking LayerNorm: a fresh module's
/// gain of 1 and bias of 0 would leave the LayerNorm's multiply-add untested.
hls::MhsaWeights weights_of(nn::MultiHeadSelfAttention& mhsa, nt::Rng& rng) {
  auto w = hls::MhsaWeights::from_module(mhsa);
  if (!w.ln_gamma.empty()) {
    w.ln_gamma = rng.rand(w.ln_gamma.shape());
    for (nt::index_t c = 0; c < w.ln_gamma.numel(); ++c) w.ln_gamma[c] += 0.5f;
    w.ln_beta = rng.randn(w.ln_beta.shape()) * 0.25f;
  }
  return w;
}

}  // namespace

// Every Table VIII scheme, both paper design points, the word32 and
// block-int8 weight wires, batch 1 and 8: the fused datapath gives the op
// chain's codes, through every kernel form this CPU runs.
TEST(MhsaIpDifferential, FusedDatapathMatchesOpChainEverywhere) {
  if (fx::kernel_forms().size() < 2) {
    std::printf("note: no AVX2 on this CPU; only the portable form is checked\n");
  }
  const hls::MhsaDesignPoint points[] = {
      hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed),
      hls::MhsaDesignPoint::botnet_512(hls::DataType::kFixed)};
  for (const auto& base : points) {
    nt::Rng rng(static_cast<std::uint64_t>(base.dim));
    nn::MultiHeadSelfAttention mhsa(config_of(base), rng);
    const auto weights = weights_of(mhsa, rng);
    for (const auto& scheme : fx::table8_schemes()) {
      for (const auto wire : {hls::WeightWire::kWord32, hls::WeightWire::kBlockInt8}) {
        auto point = base;
        point.scheme = scheme;
        point.wire = wire;
        for (const nt::index_t batch : {1, 8}) {
          // Inputs a few units wide, so the narrow schemes saturate.
          const auto x = rng.randn(nt::Shape{batch, point.dim, point.height, point.width}) * 4.0f;
          expect_matches_chain(point, weights, x,
                               point.to_string() + " " + scheme.to_string() +
                                   (wire == hls::WeightWire::kWord32 ? " word32" : " int8") +
                                   " batch " + std::to_string(batch));
        }
      }
    }
  }
}

// Geometries off the vector width, with and without R_h and LayerNorm:
// head_dim 6 and 15 tokens (padded panels and a masked store); head_dim 12
// (three-vector A V_h tiles) with 20, 24 and 28 tokens, so a score row ends
// in a one-, two- or three-vector tile after its four-vector ones.
TEST(MhsaIpDifferential, RaggedGeometryWithAndWithoutRelAndLayerNorm) {
  struct Geometry {
    nt::index_t dim, height, width;
  };
  std::uint64_t seed = 11;
  for (const Geometry& g : {Geometry{24, 3, 5}, Geometry{48, 4, 5}, Geometry{48, 4, 6},
                            Geometry{48, 4, 7}}) {
    hls::MhsaDesignPoint point = hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed);
    point.dim = g.dim;
    point.height = g.height;
    point.width = g.width;
    for (const bool full : {true, false}) {
      nt::Rng rng(seed++);
      auto cfg = config_of(point);
      cfg.pos = full ? nn::PosEncodingKind::kRelative2d : nn::PosEncodingKind::kNone;
      cfg.layer_norm_out = full;
      nn::MultiHeadSelfAttention mhsa(cfg, rng);
      for (const nt::index_t batch : {1, 3}) {
        expect_matches_chain(point, weights_of(mhsa, rng),
                             rng.randn(nt::Shape{batch, g.dim, g.height, g.width}) * 2.0f,
                             std::to_string(g.dim) + " " + std::to_string(g.height) + "x" +
                                 std::to_string(g.width) + (full ? " rel+ln" : " plain") +
                                 " batch " + std::to_string(batch));
      }
    }
  }
}

// Inputs large enough that the per-head products fail the int64 proof: the
// fused datapath takes the __int128 path, says so in fx.accum.wide_fallbacks,
// and still gives the chain's codes in every form. The projections are the
// identity, so Q = K = V = X. The first image has random tokens; each of the
// others repeats one token of large entries, so its Q K^T and A V sums
// really pass 2^63 and an int64 accumulator would wrap (at these magnitudes,
// to a code of the other sign or a smaller one). The entries grow across the
// channels, so the heads differ and the LayerNorm does not flatten them.
TEST(MhsaIpDifferential, WideFallbackKeepsTheChainsCodes) {
  const auto point = hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed);
  nt::Rng rng(13);
  nn::MultiHeadSelfAttention mhsa(config_of(point), rng);
  auto weights = weights_of(mhsa, rng);
  const nt::index_t n = point.tokens(), d = point.dim;
  for (nt::Tensor* w : {&weights.wq, &weights.wk, &weights.wv}) {
    *w = nt::Tensor(nt::Shape{d, d});
    for (nt::index_t i = 0; i < d; ++i) (*w)[i * d + i] = 1.0f;
  }
  const QuantizedWeights qw = quantize_weights(point, weights);
  const auto ff = point.scheme.feature;
  const float levels[] = {19000.0f, 21000.0f, 23000.0f, 25000.0f};  // codes near 2^30.3
  nt::Tensor x(nt::Shape{5 * n, d});
  const nt::Tensor noise = rng.randn(nt::Shape{n, d}) * 8000.0f;
  std::copy(noise.data(), noise.data() + n * d, x.data());
  for (nt::index_t s = 1; s < 5; ++s) {
    for (nt::index_t i = 0; i < n * d; ++i) {
      x[s * n * d + i] = levels[s - 1] * (0.6f + 0.4f * static_cast<float>(i % d) / d);
    }
  }
  const auto tokens = fx::FixedTensor::from_float(x, ff);
  const auto want = reference_stacked(point, qw, tokens);
  const fx::QMhsa fused(qw.wq, qw.wk, qw.wv, qw.rel, qw.ln_gamma, qw.ln_beta, point.heads, n, ff,
                        1.0f / std::sqrt(static_cast<float>(point.head_dim())));
  auto& fallbacks = nodetr::obs::Registry::instance().counter("fx.accum.wide_fallbacks");
  for (const auto form : fx::kernel_forms()) {
    const std::int64_t before = fallbacks.value();
    EXPECT_EQ(first_diff(fused.run(tokens, form), want), -1) << form_name(form);
    EXPECT_GT(fallbacks.value(), before) << form_name(form);
  }
  hls::MhsaIpCore ip(point, weights);
  const std::int64_t before = fallbacks.value();
  EXPECT_EQ(first_diff(ip.run_fixed_tokens(tokens), want), -1);
  EXPECT_GT(fallbacks.value(), before);
}
