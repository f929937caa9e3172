#include "nodetr/tensor/tune.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "nodetr/obs/obs.hpp"

namespace nodetr::tensor::tune {

namespace obs = nodetr::obs;

namespace {

/// Parse a sysfs cache size string ("48K", "2M", "32768").
std::size_t parse_size(const std::string& s) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str()) return 0;
  switch (*end) {
    case 'K': case 'k': return v << 10;
    case 'M': case 'm': return v << 20;
    case 'G': case 'g': return v << 30;
    default: return v;
  }
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

#ifdef _SC_LEVEL1_DCACHE_SIZE
long sysconf_or_zero(int name) {
  const long v = ::sysconf(name);
  return v > 0 ? v : 0;
}
#endif

index_t round_down(index_t v, index_t step) { return std::max(step, v / step * step); }

/// Stable gauge ids for `GemmConfig::source`: 0 "default", 3 "env".
int source_id(const char* source) { return std::string_view(source) == "env" ? 3 : 0; }

void publish_gauges(const GemmConfig& cfg, const CacheInfo& caches) {
  auto& reg = obs::Registry::instance();
  reg.gauge("tensor.gemm.kernel_id").set(cfg.kernel->id);
  reg.gauge("tensor.gemm.mr").set(static_cast<double>(cfg.kernel->mr));
  reg.gauge("tensor.gemm.nr").set(static_cast<double>(cfg.kernel->nr));
  reg.gauge("tensor.gemm.mc").set(static_cast<double>(cfg.mc));
  reg.gauge("tensor.gemm.kc").set(static_cast<double>(cfg.kc));
  reg.gauge("tensor.gemm.nc").set(static_cast<double>(cfg.nc));
  reg.gauge("tensor.tune.source").set(source_id(cfg.source));
  reg.gauge("tensor.cpu.l1d_bytes").set(static_cast<double>(caches.l1d));
  reg.gauge("tensor.cpu.l2_bytes").set(static_cast<double>(caches.l2));
  reg.gauge("tensor.cpu.l3_bytes").set(static_cast<double>(caches.l3));
}

std::string human_bytes(std::size_t b) {
  char buf[32];
  if (b >= (std::size_t{1} << 20)) {
    std::snprintf(buf, sizeof buf, "%.0fM", static_cast<double>(b) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof buf, "%.0fK", static_cast<double>(b) / (1 << 10));
  }
  return buf;
}

}  // namespace

CacheInfo probe_caches() {
  CacheInfo info;
  // Preferred source: sysfs cpu0 cache indexes (exact, per-level, per-type).
  for (int idx = 0; idx < 10; ++idx) {
    const std::string base = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    const std::string type = read_line(base + "/type");
    if (type.empty()) break;
    if (type == "Instruction") continue;
    const int level = std::atoi(read_line(base + "/level").c_str());
    const std::size_t size = parse_size(read_line(base + "/size"));
    if (size == 0) continue;
    if (level == 1) info.l1d = size;
    if (level == 2) info.l2 = size;
    if (level == 3) info.l3 = size;
    info.probed = true;
  }
#ifdef _SC_LEVEL1_DCACHE_SIZE
  if (info.l1d == 0) info.l1d = static_cast<std::size_t>(sysconf_or_zero(_SC_LEVEL1_DCACHE_SIZE));
  if (info.l2 == 0) info.l2 = static_cast<std::size_t>(sysconf_or_zero(_SC_LEVEL2_CACHE_SIZE));
  if (info.l3 == 0) info.l3 = static_cast<std::size_t>(sysconf_or_zero(_SC_LEVEL3_CACHE_SIZE));
  info.probed = info.probed || info.l1d != 0 || info.l2 != 0 || info.l3 != 0;
#endif
  return info;
}

const CacheInfo& host_caches() {
  static const CacheInfo cached = [] {
    CacheInfo info = probe_caches();
    // Conservative defaults for levels the OS hides (containers, exotic
    // kernels): small enough to be safe on any post-2010 core.
    if (info.l1d == 0) info.l1d = 32 << 10;
    if (info.l2 == 0) info.l2 = 1 << 20;
    if (info.l3 == 0) info.l3 = 8 << 20;
    return info;
  }();
  return cached;
}

GemmConfig default_config(const simd::MicroKernel& kernel, const CacheInfo& caches) {
  GemmConfig cfg;
  cfg.kernel = &kernel;
  // KC: one A (mr x KC) + one B (KC x nr) micro-panel pair resident in L1d,
  // leaving a quarter for the C tile and stack noise.
  const index_t kc_budget =
      static_cast<index_t>(caches.l1d * 3 / 4) / (4 * (kernel.mr + kernel.nr));
  cfg.kc = std::clamp<index_t>(round_down(kc_budget, 8), 64, 512);
  // MC: the MC x KC block of A that one tile loop streams, read in place,
  // fills at most half of L2.
  const index_t mc_budget = static_cast<index_t>(caches.l2 / 2) / (4 * cfg.kc);
  cfg.mc = std::clamp<index_t>(round_down(mc_budget, kernel.mr), kernel.mr * 4, 768);
  // NC: the packed B block (KC x NC) fills at most a quarter of L3 (shared
  // with other cores and the streamed C), capped to bound arena growth.
  const index_t nc_budget = static_cast<index_t>(caches.l3 / 4) / (4 * cfg.kc);
  cfg.nc = std::clamp<index_t>(round_down(nc_budget, kernel.nr), kernel.nr * 4, 2048);
  cfg.source = "default";
  return cfg;
}

std::string to_spec(const GemmConfig& cfg) {
  std::ostringstream os;
  os << cfg.kernel->name << ":" << cfg.mc << ":" << cfg.kc << ":" << cfg.nc;
  return os.str();
}

std::optional<GemmConfig> parse_spec(const std::string& spec) {
  std::vector<std::string_view> parts;
  for (std::string_view rest(spec);;) {
    const auto colon = rest.find(':');
    parts.push_back(rest.substr(0, colon));
    if (colon == std::string_view::npos) break;
    rest.remove_prefix(colon + 1);
  }
  if (parts.size() != 1 && parts.size() != 4) return std::nullopt;
  const simd::MicroKernel* kernel = simd::find_kernel(parts[0]);
  if (kernel == nullptr) return std::nullopt;
  if (parts.size() == 1) return default_config(*kernel, host_caches());
  GemmConfig cfg;
  cfg.kernel = kernel;
  index_t* fields[3] = {&cfg.mc, &cfg.kc, &cfg.nc};
  for (int i = 0; i < 3; ++i) {
    // Plain decimal digits only: from_chars into an unsigned type takes no
    // sign and no whitespace, fails on an empty field, and must consume the
    // whole field.
    const std::string_view f = parts[static_cast<std::size_t>(i) + 1];
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), v);
    if (ec != std::errc() || end != f.data() + f.size()) return std::nullopt;
    if (v < 8 || v > (1u << 20)) return std::nullopt;
    *fields[i] = static_cast<index_t>(v);
  }
  return cfg;
}

GemmConfig select_config(const std::string& env_spec) {
  const CacheInfo& caches = host_caches();
  std::optional<GemmConfig> cfg;
  if (!env_spec.empty()) {
    cfg = parse_spec(env_spec);
    if (cfg.has_value()) {
      cfg->source = "env";
      obs::Registry::instance().counter("tensor.tune.env_overrides").add();
    } else {
      std::fprintf(stderr, "nodetr: ignoring invalid NODETR_GEMM_CONFIG=\"%s\"\n",
                   env_spec.c_str());
    }
  }
  if (!cfg.has_value()) cfg = default_config(simd::available_kernels().front(), caches);
  publish_gauges(*cfg, caches);
  return *cfg;
}

const GemmConfig& gemm_config() {
  static const GemmConfig cfg = [] {
    const char* env_spec = std::getenv("NODETR_GEMM_CONFIG");
    return select_config(env_spec != nullptr ? env_spec : "");
  }();
  return cfg;
}

std::string describe(const GemmConfig& cfg) {
  const CacheInfo& caches = host_caches();
  std::ostringstream os;
  os << "gemm: microkernel " << cfg.kernel->name << " (" << cfg.kernel->mr << "x"
     << cfg.kernel->nr << ", " << simd::cpu_features() << "), blocking MC=" << cfg.mc
     << " KC=" << cfg.kc << " NC=" << cfg.nc << ", caches L1d=" << human_bytes(caches.l1d)
     << " L2=" << human_bytes(caches.l2) << " L3=" << human_bytes(caches.l3)
     << ", source=" << cfg.source;
  return os.str();
}

}  // namespace nodetr::tensor::tune
