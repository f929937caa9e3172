// Units for GEMM config selection: cache probing, cache-derived blocking
// budgets, spec parsing (including a seeded mutation loop over specs), and
// the selection policy (env pin, else the first kernel's default) via the
// test-injectable select_config front door.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <regex>
#include <string>
#include <vector>

#include "../common/gemm_chain.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/rng.hpp"
#include "nodetr/tensor/simd.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nt = nodetr::tensor;
namespace simd = nodetr::tensor::simd;
namespace tune = nodetr::tensor::tune;
using nodetr::tensor::index_t;

TEST(TuneCaches, HostCachesAlwaysPositive) {
  const auto& c = tune::host_caches();
  EXPECT_GT(c.l1d, 0u);
  EXPECT_GT(c.l2, 0u);
  EXPECT_GT(c.l3, 0u);
  EXPECT_GE(c.l2, c.l1d);
  // probe_caches() makes no default-filling promise, but whatever it found
  // must be what host_caches() kept.
  const auto probed = tune::probe_caches();
  if (probed.l1d != 0) {
    EXPECT_EQ(probed.l1d, c.l1d);
  }
  if (probed.l2 != 0) {
    EXPECT_EQ(probed.l2, c.l2);
  }
  if (probed.l3 != 0) {
    EXPECT_EQ(probed.l3, c.l3);
  }
}

TEST(TuneHeuristics, DefaultConfigRespectsCacheBudgets) {
  const auto& caches = tune::host_caches();
  for (const auto& kernel : simd::available_kernels()) {
    const auto cfg = tune::default_config(kernel, caches);
    ASSERT_EQ(cfg.kernel, &kernel);
    EXPECT_GE(cfg.kc, 64);
    EXPECT_LE(cfg.kc, 512);
    EXPECT_EQ(cfg.kc % 8, 0) << kernel.name;
    EXPECT_EQ(cfg.mc % kernel.mr, 0) << kernel.name;
    EXPECT_EQ(cfg.nc % kernel.nr, 0) << kernel.name;
    // The clamps may override the cache budget on tiny caches, but on any
    // real host the packed A block must not blow past L2.
    if (caches.l2 >= (1u << 20)) {
      EXPECT_LE(static_cast<std::size_t>(cfg.mc * cfg.kc) * sizeof(float), caches.l2)
          << kernel.name;
    }
  }
}

TEST(TuneSpec, RoundTripsThroughString) {
  tune::GemmConfig cfg;
  cfg.kernel = &simd::scalar_kernel();
  cfg.mc = 40;
  cfg.kc = 64;
  cfg.nc = 128;
  const auto parsed = tune::parse_spec(tune::to_spec(cfg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kernel, cfg.kernel);
  EXPECT_EQ(parsed->mc, cfg.mc);
  EXPECT_EQ(parsed->kc, cfg.kc);
  EXPECT_EQ(parsed->nc, cfg.nc);
}

TEST(TuneSpec, KernelOnlySpecGetsHeuristicBlocking) {
  const auto parsed = tune::parse_spec("scalar_4x8");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kernel, &simd::scalar_kernel());
  EXPECT_GT(parsed->mc, 0);
  EXPECT_GT(parsed->kc, 0);
  EXPECT_GT(parsed->nc, 0);
}

TEST(TuneSpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(tune::parse_spec("").has_value());
  EXPECT_FALSE(tune::parse_spec("no_such_kernel").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:64").has_value());          // wrong arity
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:64:64").has_value());      // wrong arity
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:a:64:64").has_value());    // not a number
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:64:64:64x").has_value());  // trailing junk
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:4:64:64").has_value());    // below range
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:64:64:2097152").has_value());  // above range
  // Only "kernel" or "kernel:MC:KC:NC" with plain decimal fields.
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:384:256:1024:").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8::256:1024").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8: 384:256:1024").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:384:+256:1024").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:384:-256:1024").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:384:256:1024 ").has_value());
  EXPECT_FALSE(tune::parse_spec(" scalar_4x8").has_value());
  EXPECT_FALSE(tune::parse_spec("scalar_4x8:384:256:99999999999999999999999").has_value());
  EXPECT_TRUE(tune::parse_spec("scalar_4x8:0384:256:1024").has_value());
}

namespace {

/// One random edit: insert, delete or replace a character, repeat the last
/// field, or truncate.
void mutate(std::string& spec, nt::Rng& rng) {
  static const std::string kAlphabet = "0123456789:+- x_avs";
  auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.randint(0, static_cast<index_t>(size) - 1));
  };
  const char ch = kAlphabet[pick(kAlphabet.size())];
  switch (pick(5)) {
    case 0:
      spec.insert(pick(spec.size() + 1), 1, ch);
      break;
    case 1:
      if (!spec.empty()) spec.erase(pick(spec.size()), 1);
      break;
    case 2:
      if (!spec.empty()) spec[pick(spec.size())] = ch;
      break;
    case 3: {
      const auto colon = spec.rfind(':');
      spec += spec.substr(colon == std::string::npos ? 0 : colon);
      break;
    }
    default:
      spec.resize(pick(spec.size() + 1));
  }
}

}  // namespace

// A deterministic mutation loop over NODETR_GEMM_CONFIG specs: each round
// takes a valid or invalid seed spec and applies 1-4 random edits. Whatever
// the input, parse_spec either rejects it or accepts a spec of the strict
// form and returns a config that to_spec round-trips and that computes one
// small GEMM bitwise equal to the chain reference. Seeded, so a failure
// replays; the failing spec is printed.
TEST(TuneSpec, MutatedSpecsParseStrictlyOrNotAtAll) {
  std::vector<std::string> seeds = {"", ":", ":::", "scalar_4x8:8:8:8", "scalar_4x8:1048576:8:8",
                                    "scalar_4x8:384:256:1024:", "x:1:2:3"};
  for (const auto& kern : simd::available_kernels()) {
    seeds.emplace_back(kern.name);
    seeds.push_back(std::string(kern.name) + ":48:24:32");
  }
  constexpr index_t m = 7, k = 37, n = 11;
  nt::Rng rng(0x5eed);
  const nt::Tensor a = rng.rand(nt::Shape{m, k}, -1.0f, 1.0f);
  const nt::Tensor b = rng.rand(nt::Shape{k, n}, -1.0f, 1.0f);
  const std::regex kStrict("[a-z0-9_]+(:[0-9]+:[0-9]+:[0-9]+)?");
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string spec = seeds[static_cast<std::size_t>(
        rng.randint(0, static_cast<index_t>(seeds.size()) - 1))];
    for (index_t e = rng.randint(1, 4); e > 0; --e) mutate(spec, rng);
    const auto cfg = tune::parse_spec(spec);
    if (!cfg.has_value()) continue;
    ++accepted;
    SCOPED_TRACE("round " + std::to_string(round) + " spec \"" + spec + "\"");
    EXPECT_TRUE(std::regex_match(spec, kStrict));
    const auto again = tune::parse_spec(tune::to_spec(*cfg));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->kernel, cfg->kernel);
    EXPECT_EQ(again->mc, cfg->mc);
    EXPECT_EQ(again->kc, cfg->kc);
    EXPECT_EQ(again->nc, cfg->nc);
    nt::Tensor c(nt::Shape{m, n});
    nt::gemm_blocked_cfg(m, k, n, nt::GemmView::plain(a.data(), k),
                         nt::GemmView::plain(b.data(), n), c.data(), n, *cfg);
    const nt::Tensor want = nodetr::testing::chain_matmul(*cfg->kernel, a, b);
    ASSERT_EQ(std::memcmp(c.data(), want.data(), sizeof(float) * m * n), 0);
  }
  EXPECT_GT(accepted, 0);
}

TEST(TuneFile, SelectHonorsEnvOverrideFirst) {
  const auto cfg = tune::select_config("scalar_4x8:40:64:80");
  EXPECT_EQ(cfg.kernel, &simd::scalar_kernel());
  EXPECT_EQ(cfg.mc, 40);
  EXPECT_EQ(cfg.kc, 64);
  EXPECT_EQ(cfg.nc, 80);
  EXPECT_STREQ(cfg.source, "env");
}

namespace {

void expect_first_kernel_default(const tune::GemmConfig& cfg) {
  const auto want = tune::default_config(simd::available_kernels().front(), tune::host_caches());
  EXPECT_EQ(cfg.kernel, want.kernel);
  EXPECT_EQ(cfg.mc, want.mc);
  EXPECT_EQ(cfg.kc, want.kc);
  EXPECT_EQ(cfg.nc, want.nc);
  EXPECT_STREQ(cfg.source, "default");
}

}  // namespace

TEST(TuneSelect, EmptySpecGetsFirstKernelDefault) {
  ::testing::internal::CaptureStderr();
  expect_first_kernel_default(tune::select_config(""));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(TuneSelect, InvalidSpecWarnsAndGetsFirstKernelDefault) {
  ::testing::internal::CaptureStderr();
  expect_first_kernel_default(tune::select_config("avx2_6x16:384:256:1024:"));
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("ignoring invalid NODETR_GEMM_CONFIG"), std::string::npos) << warning;
}

TEST(TuneDescribe, MentionsKernelBlockingAndSource) {
  const auto cfg = tune::default_config(simd::scalar_kernel(), tune::host_caches());
  const auto line = tune::describe(cfg);
  EXPECT_NE(line.find("scalar_4x8"), std::string::npos);
  EXPECT_NE(line.find("MC="), std::string::npos);
  EXPECT_NE(line.find("KC="), std::string::npos);
  EXPECT_NE(line.find("NC="), std::string::npos);
  EXPECT_NE(line.find("source=default"), std::string::npos);
}
