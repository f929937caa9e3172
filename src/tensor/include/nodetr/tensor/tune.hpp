// GEMM configuration: which microkernel runs, and the MC/KC/NC cache
// blocking around it.
//
// `gemm_blocked` needs both decided once per process. Blocking cannot change
// a float bit (each output element is one ascending-k chain whatever the
// blocking, gemm.hpp), so it is derived from the caches, not measured:
//
//   1. NODETR_GEMM_CONFIG="<kernel>[:MC:KC:NC]" — a pinned config. Fields are
//      plain decimal; a spec that does not parse is ignored with a warning.
//   2. Otherwise `default_config` of the first available kernel: probe
//      L1d/L2/L3 (sysfs, then sysconf, then safe defaults) and size the
//      blocks from them (A+B micro-panel pair in L1, the MC x KC block of A
//      in L2, packed B block in L3), as BLIS's analytical model does. A is
//      read in place, so MC sizes the row block the tile loop streams, not
//      a copy.
//
// The config is exported through obs gauges (tensor.gemm.*,
// tensor.cpu.*_bytes — visible in the JSON dump and OpenMetrics) and via
// `describe()` for startup banners.
#pragma once

#include <optional>
#include <string>

#include "nodetr/tensor/shape.hpp"
#include "nodetr/tensor/simd.hpp"

namespace nodetr::tensor::tune {

/// Data-cache capacities in bytes. Zero fields were not discoverable;
/// `host_caches()` replaces them with conservative defaults.
struct CacheInfo {
  std::size_t l1d = 0;
  std::size_t l2 = 0;
  std::size_t l3 = 0;
  bool probed = false;  ///< at least one level came from sysfs/sysconf
};

/// Fresh probe: sysfs cpu0 cache indexes, then sysconf, no defaults applied.
[[nodiscard]] CacheInfo probe_caches();

/// Probe result for this host, cached, with defaults (32K/1M/8M) filled in
/// for levels the OS would not reveal.
[[nodiscard]] const CacheInfo& host_caches();

/// A fully-resolved GEMM execution plan.
struct GemmConfig {
  const simd::MicroKernel* kernel = nullptr;
  index_t mc = 0, kc = 0, nc = 0;
  const char* source = "default";  ///< "env" | "default"
};

/// Cache-derived blocking for one kernel shape on one cache hierarchy: the
/// config of every process that pins none.
[[nodiscard]] GemmConfig default_config(const simd::MicroKernel& kernel, const CacheInfo& caches);

/// "avx2_6x16:384:320:1024" — the NODETR_GEMM_CONFIG syntax.
[[nodiscard]] std::string to_spec(const GemmConfig& cfg);

/// Parse a spec: "kernel" alone (cache-derived blocking) or "kernel:MC:KC:NC"
/// with plain decimal fields in [8, 2^20]. nullopt for anything else,
/// including a kernel this host cannot run.
[[nodiscard]] std::optional<GemmConfig> parse_spec(const std::string& spec);

/// The selection policy, parameterized for tests: `env_spec` (the
/// NODETR_GEMM_CONFIG value, "" = unset) if it parses, else `default_config`
/// of the first available kernel. Publishes the obs gauges for the result.
[[nodiscard]] GemmConfig select_config(const std::string& env_spec);

/// Process-wide selected config: select_config() driven by the environment,
/// computed on first use (thread-safe) and fixed thereafter.
[[nodiscard]] const GemmConfig& gemm_config();

/// One-line banner: kernel, blocking, detected caches, selection source.
[[nodiscard]] std::string describe(const GemmConfig& cfg);

}  // namespace nodetr::tensor::tune
