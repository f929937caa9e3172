// bench_e2e — one workload of the end-to-end benchmark per process.
//
// The unit of work is the paper's: one 96x96 image -> logits through
// stem -> ODEBlock(64)xC -> downsample -> ODEBlock(128)xC -> downsample ->
// MHSA-ODEBlockxC -> head, run as host float, bit-accurate fixed point or
// PS/PL offload, plus the MHSA serving engine. README.md lists the workloads,
// the metrics, and how to read the per-layer ledger.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// an untraced pass for the reference wall time, then a traced pass that
// times each layer from outside by calling its public entry point, wrapped
// in an obs::ScopedSpan("e2e.<row>"); NODETR_TRACE=<file> exports the spans.
//
// The report goes to stdout; its last line is one JSON object with the keys
// correct, attempted, failed and metrics. Exit code 1 when an output check
// failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/fx/qops.hpp"
#include "nodetr/hls/model_plan.hpp"
#include "nodetr/hls/qexec.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/tune.hpp"

namespace core = nodetr::core;
namespace fx = nodetr::fx;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace obs = nodetr::obs;
namespace ode = nodetr::ode;
namespace rt = nodetr::rt;
namespace serve = nodetr::serve;
using nt::index_t;
using nt::Shape;
using nt::Tensor;
using Clock = std::chrono::steady_clock;

namespace {

// ---- fixed settings ---------------------------------------------------------

constexpr std::size_t kImagePool = 16;   ///< classifier inputs, cycled in order
constexpr std::size_t kMapPool = 64;     ///< serving inputs (64, 6, 6), cycled
constexpr std::size_t kSetups = 21;      ///< setup_s is the median of these
constexpr double kFixedTolerance = 0.05; ///< of max |float logit|
constexpr double kServeRate = 600.0;     ///< phase A arrivals per second
constexpr double kServeLimitMs = 10.0;   ///< goodput latency limit, phase A
constexpr std::size_t kServeInFlight = 64;  ///< phase B closed-loop window
constexpr double kServeShareA = 0.6;     ///< of the run spent in phase A
constexpr std::size_t kMaxTracedIterations = 200;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void print_setups(const std::vector<double>& setup_s) {
  std::printf("set-ups (ms):");
  for (double s : setup_s) std::printf(" %.2f", s * 1e3);
  std::printf("\n");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Pin the GEMM microkernel before the library first reads it: unpinned runs
/// auto-tune to different kernels from run to run, which makes float timings
/// bimodal. Float results are bitwise only per kernel, so the pin also fixes
/// the reference logits.
std::string pin_gemm_kernel() {
  const char* spec = nt::tune::parse_spec("avx2_6x16") ? "avx2_6x16" : "scalar_4x8";
  setenv("NODETR_GEMM_CONFIG", spec, 1);
  return spec;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}
bool bitwise_equal(const fx::FixedTensor& a, const fx::FixedTensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(std::int64_t);
  return a.shape() == b.shape() && a.format() == b.format() &&
         std::memcmp(a.raw(), b.raw(), bytes) == 0;
}

/// max |got - want| within `tol` of max |want|.
bool within_tolerance(const Tensor& got, const Tensor& want, double tol) {
  if (got.shape() != want.shape()) return false;
  double max_want = 0.0, max_diff = 0.0;
  for (index_t i = 0; i < want.numel(); ++i) {
    max_want = std::max(max_want, static_cast<double>(std::fabs(want[i])));
    max_diff = std::max(max_diff, static_cast<double>(std::fabs(got[i] - want[i])));
  }
  return std::isfinite(max_diff) && max_diff <= tol * max_want;
}

Tensor concat_rows(const std::vector<Tensor>& rows, std::size_t first, std::size_t count) {
  const Shape& one = rows[first].shape();
  std::vector<index_t> dims = one.dims();
  dims[0] = static_cast<index_t>(count);
  Tensor out{Shape(dims)};
  const auto n = static_cast<std::size_t>(rows[first].numel());
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(out.data() + i * n, rows[first + i].data(), n * sizeof(float));
  }
  return out;
}

// ---- classifier: the whole model, three datapaths -----------------------------

enum class Mode { kFloat, kFixed, kOffload };

/// One datapath through the model's top-level layers. `V` is the value that
/// flows between layers: float tensors, or fixed-point codes.
struct FloatPath {
  using V = Tensor;
  V enter(const Tensor& x) const { return x; }
  V apply(nn::Module& m, const V& x) const { return m.forward(x); }
  void euler(V& z, const V& f, float h) const { z.add_scaled(f, h); }  // as ode::OdeBlock
  Tensor leave(const V& v) const { return v; }
};

struct FixedPath {
  hls::QuantizedExecutor& exec;
  using V = fx::FixedTensor;
  V enter(const Tensor& x) const { return fx::FixedTensor::from_float(x, exec.scheme().feature); }
  V apply(nn::Module& m, const V& x) const { return exec.run_fixed(m, x); }
  void euler(V& z, const V& f, float h) const { z = fx::qadd(z, fx::qscale(f, h)); }  // as qexec
  Tensor leave(const V& v) const { return v.to_float(); }
};

/// Stage rows of the ledger: ranges of the OdeNet Sequential's children.
struct Stage {
  const char* metric;
  const char* span;
  std::size_t first, last;  ///< child range [first, last)
};
constexpr std::array<Stage, 10> kStages{{
    {"stem.conv_ms", "e2e.stem.conv", 0, 1},
    {"stem.bn_ms", "e2e.stem.bn", 1, 2},
    {"stem.relu_ms", "e2e.stem.relu", 2, 3},
    {"stem.maxpool_ms", "e2e.stem.maxpool", 3, 4},
    {"ode1_ms", "e2e.ode1", 4, 5},
    {"ds1_ms", "e2e.ds1", 5, 6},
    {"ode2_ms", "e2e.ode2", 6, 7},
    {"ds2_ms", "e2e.ds2", 7, 8},
    {"ode3_ms", "e2e.ode3", 8, 9},
    {"head_ms", "e2e.head", 9, 13},
}};
constexpr std::array<std::size_t, 3> kOdeStages{4, 6, 8};

/// Rows inside the ODE blocks: four per block; the last is the Euler residual.
constexpr std::array<const char*, 12> kInnerMetrics{
    "ode1.bn_ms",     "ode1.relu_ms",    "ode1.dsc_ms",  "ode1.euler_ms",
    "ode2.bn_ms",     "ode2.relu_ms",    "ode2.dsc_ms",  "ode2.euler_ms",
    "ode3.bnrelu_ms", "ode3.conv1x1_ms", "ode3.mhsa_ms", "ode3.euler_ms"};
constexpr std::array<const char*, 12> kInnerSpans{
    "e2e.ode1.bn",     "e2e.ode1.relu",    "e2e.ode1.dsc",  "",
    "e2e.ode2.bn",     "e2e.ode2.relu",    "e2e.ode2.dsc",  "",
    "e2e.ode3.bnrelu", "e2e.ode3.conv1x1", "e2e.ode3.mhsa", ""};

// ---- result -----------------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), as BENCHMARK.json lists them.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{{"setup_s", "s"},
                                           {"latency_p50_ms", "ms"},
                                           {"latency_p90_ms", "ms"},
                                           {"items_per_s", "1/s"},
                                           {"peak_rss_mb", "MB"}};
  return defs;
}

/// Per-layer metrics (--trace 1), as BENCHMARK.json lists them. A workload
/// that does not run a layer reports it as 0.
const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const auto& s : kStages) d.push_back({s.metric, "ms"});
    for (const char* m : kInnerMetrics) d.push_back({m, "ms"});
    d.insert(d.end(), {{"rt.ps_host_ms", "ms"},
                       {"hls.ip_host_ms", "ms"},
                       {"rt.pl_dma_cycles", "cycles"},
                       {"rt.pl_ip_cycles", "cycles"},
                       {"rt.dma_bytes_in", "bytes"},
                       {"rt.dma_bytes_out", "bytes"},
                       {"serve.submit_p99_us", "us"},
                       {"serve.queue_wait_p50_us", "us"},
                       {"serve.queue_wait_p99_us", "us"},
                       {"serve.batch_rows_mean", "rows"},
                       {"serve.batch_rows_mean_sat", "rows"},
                       {"serve.sim_cycles_per_request", "cycles"},
                       {"serve.retries", "count"},
                       {"serve.goodput_rps", "1/s"},
                       {"serve.latency_p99_ms", "ms"},
                       {"loadgen.late_p99_ms", "ms"},
                       {"coverage_pct", "%"},
                       {"trace_overhead_pct", "%"}});
    return d;
  }();
  return defs;
}

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool setup_ok = true;
  std::map<std::string, double> values;

  /// Count one attempted operation; `ok` false counts it as failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] bool correct() const { return setup_ok && failed == 0 && attempted > 0; }

  void print(bool trace) const {
    const auto& defs = trace ? layer_metrics() : end_to_end_metrics();
    std::printf("\nmetrics:\n");
    // Strict JSON: a non-finite value prints as null, which run.py rejects,
    // rather than as a bare inf/nan token.
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const auto it = values.find(defs[i].name);
      if (it == values.end() && !trace) {
        throw std::logic_error("bench_e2e: end-to-end metric not measured: " + defs[i].name);
      }
      const double v = it == values.end() ? 0.0 : it->second;
      std::printf("  %-30s %16.6f %s\n", defs[i].name.c_str(), v, defs[i].unit);
      char value[64];
      std::snprintf(value, sizeof(value), std::isfinite(v) ? "%.17g" : "null", v);
      json += (i == 0 ? "\"" : ", \"") + defs[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("attempted %lld, failed %lld, correct %s\n", static_cast<long long>(attempted),
                static_cast<long long>(failed), correct() ? "true" : "false");
    std::printf("%s\n", json.c_str());
  }
};

/// Inner row (0..2 within the block) a dynamics child is billed to.
std::size_t inner_row(nn::Module& m, bool mhsa_block) {
  const bool norm = dynamic_cast<nn::BatchNorm2d*>(&m) != nullptr;
  const bool relu = dynamic_cast<nn::ReLU*>(&m) != nullptr;
  if (mhsa_block) {
    if (norm || relu) return 0;
    if (dynamic_cast<nn::Conv2d*>(&m) != nullptr) return 1;
    if (dynamic_cast<nn::MultiHeadSelfAttention*>(&m) != nullptr) return 2;
  } else {
    if (norm) return 0;
    if (relu) return 1;
    if (dynamic_cast<nn::DepthwiseSeparableConv*>(&m) != nullptr) return 2;
  }
  throw std::logic_error("bench_e2e: unexpected ODE dynamics layer " + m.name());
}

/// The top-level layers of the paper model, checked against the ledger's rows.
std::vector<nn::Module*> top_level_layers(core::LightweightTransformer& lt) {
  auto outer = lt.model().children();
  if (outer.size() != 1) throw std::logic_error("bench_e2e: OdeNet must wrap one Sequential");
  auto kids = outer[0]->children();
  const bool ok = kids.size() == 13 && dynamic_cast<nn::Conv2d*>(kids[0]) &&
                  dynamic_cast<nn::BatchNorm2d*>(kids[1]) && dynamic_cast<nn::ReLU*>(kids[2]) &&
                  dynamic_cast<nn::MaxPool2d*>(kids[3]) && dynamic_cast<ode::OdeBlock*>(kids[4]) &&
                  dynamic_cast<nn::Residual*>(kids[5]) && dynamic_cast<ode::OdeBlock*>(kids[6]) &&
                  dynamic_cast<nn::Residual*>(kids[7]) && dynamic_cast<ode::OdeBlock*>(kids[8]) &&
                  dynamic_cast<nn::Linear*>(kids[12]);
  if (!ok) throw std::logic_error("bench_e2e: model layout does not match the ledger rows");
  return kids;
}

/// The system under test for one classifier workload.
struct Classifier {
  Mode mode = Mode::kFloat;
  std::unique_ptr<core::LightweightTransformer> lt;
  std::unique_ptr<hls::QuantizedExecutor> exec;  ///< kFixed
  std::unique_ptr<rt::OffloadedModel> offload;   ///< kOffload; declared after lt

  explicit Classifier(Mode m) : mode(m), lt(std::make_unique<core::LightweightTransformer>()) {
    lt->model().train(false);
    if (mode == Mode::kFixed) exec = std::make_unique<hls::QuantizedExecutor>(fx::scheme_32_24());
    if (mode == Mode::kOffload) offload = lt->offload(hls::DataType::kFixed);
  }

  Tensor call(const Tensor& x) {
    switch (mode) {
      case Mode::kFloat: return lt->predict_logits(x);
      case Mode::kFixed: return exec->run(lt->model(), x);
      case Mode::kOffload: return offload->forward(x);
    }
    throw std::logic_error("bench_e2e: unknown mode");
  }
};

/// One traced pass over the model: stage rows, inner rows, chain wall time.
struct LedgerSample {
  std::array<double, kStages.size()> stage_ms{};
  std::array<double, kInnerMetrics.size()> inner_ms{};
  double wall_ms = 0.0;
  bool ok = true;  ///< logits and probe states bitwise equal to the untraced program
};

/// Time each top-level layer in model order (the chain), then re-run each ODE
/// block's dynamics children one at a time from that block's input (the
/// probe). The chain must reproduce the reference logits bitwise and the probe
/// each block's output bitwise, so the ledger measures the same program.
template <typename Path>
LedgerSample ledger_pass(const Path& path, const std::vector<nn::Module*>& kids, const Tensor& x,
                         const Tensor& want) {
  using V = typename Path::V;
  LedgerSample s;
  std::array<V, kOdeStages.size()> ode_in, ode_out;
  Tensor logits;
  V h;
  const auto t_chain = Clock::now();
  {
    obs::ScopedSpan chain("e2e.chain");
    for (std::size_t st = 0; st < kStages.size(); ++st) {
      const std::size_t b = static_cast<std::size_t>(
          std::find(kOdeStages.begin(), kOdeStages.end(), st) - kOdeStages.begin());
      if (b < kOdeStages.size()) ode_in[b] = h;
      {
        obs::ScopedSpan span(kStages[st].span);
        const auto t0 = Clock::now();
        // The boundary conversions (fixed point) are billed to the first and
        // last stage.
        if (st == 0) h = path.enter(x);
        for (std::size_t c = kStages[st].first; c < kStages[st].last; ++c) {
          h = path.apply(*kids[c], h);
        }
        if (st + 1 == kStages.size()) logits = path.leave(h);
        s.stage_ms[st] = ms_since(t0);
      }
      if (b < kOdeStages.size()) ode_out[b] = h;
    }
  }
  s.wall_ms = ms_since(t_chain);
  s.ok = bitwise_equal(logits, want);

  obs::ScopedSpan probe("e2e.probe");
  for (std::size_t b = 0; b < kOdeStages.size(); ++b) {
    auto& block = dynamic_cast<ode::OdeBlock&>(*kids[kOdeStages[b]]);
    const bool mhsa = dynamic_cast<nn::MhsaBlock*>(&block.dynamics()) != nullptr;
    const auto dyn = block.dynamics().children();
    const float step = (block.t1() - block.t0()) / static_cast<float>(block.steps());
    double dyn_ms = 0.0;
    V z = ode_in[b];
    for (index_t j = 0; j < block.steps(); ++j) {
      V f = z;
      for (nn::Module* child : dyn) {
        const std::size_t row = 4 * b + inner_row(*child, mhsa);
        obs::ScopedSpan span(kInnerSpans[row]);
        const auto t0 = Clock::now();
        f = path.apply(*child, f);
        const double dt = ms_since(t0);
        s.inner_ms[row] += dt;
        dyn_ms += dt;
      }
      path.euler(z, f, step);
    }
    s.ok = s.ok && bitwise_equal(z, ode_out[b]);
    // The solver's own update is not callable on its own: bill it as the
    // residual of the block's chain time.
    s.inner_ms[4 * b + 3] = s.stage_ms[kOdeStages[b]] - dyn_ms;
  }
  return s;
}

// ---- plan cross-check -----------------------------------------------------------

/// MACs of one forward of `m` for one image whose square feature map has side
/// `hw` (updated to the output side). Counts convs and linears; the MHSA core
/// is priced by the plan's attention cycle model instead, so it counts 0.
std::int64_t count_macs(nn::Module& m, index_t& hw) {
  if (auto* c = dynamic_cast<nn::Conv2d*>(&m)) {
    const auto& g = c->geom();
    hw = g.out_extent(hw);
    return g.in_channels * g.out_channels * g.kernel * g.kernel * hw * hw;
  }
  if (auto* d = dynamic_cast<nn::DepthwiseSeparableConv*>(&m)) {
    const auto& dw = d->dw_geom();
    const auto& pw = d->pw_geom();
    hw = dw.out_extent(hw);
    std::int64_t macs = dw.in_channels * dw.kernel * dw.kernel * hw * hw;
    hw = pw.out_extent(hw);
    return macs + pw.in_channels * pw.out_channels * hw * hw;
  }
  if (auto* p = dynamic_cast<nn::MaxPool2d*>(&m)) {
    hw = (hw + 2 * p->pad() - p->kernel()) / p->stride() + 1;
    return 0;
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) {
    hw = 1;
    return 0;
  }
  if (auto* l = dynamic_cast<nn::Linear*>(&m)) return l->in_features() * l->out_features();
  if (auto* ob = dynamic_cast<ode::OdeBlock*>(&m)) {
    index_t inner = hw;
    return ob->steps() * count_macs(ob->dynamics(), inner);
  }
  if (auto* r = dynamic_cast<nn::Residual*>(&m)) {
    index_t skip_hw = hw;
    const std::int64_t skip = r->skip() != nullptr ? count_macs(*r->skip(), skip_hw) : 0;
    return count_macs(r->body(), hw) + skip;
  }
  std::int64_t macs = 0;  // containers run their children in order
  for (nn::Module* child : m.children()) macs += count_macs(*child, hw);
  return macs;
}

/// Stage row a plan layer belongs to, from its name (the plan never reads the
/// model, so this is the only join).
std::size_t plan_stage(const std::string& name, bool& seen_ode2) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (starts("stem conv")) return 0;
  if (starts("stem")) return 1;  // BN+ReLU+pool priced as one elementwise layer
  if (starts("ode1")) return 4;
  if (starts("ode2")) {
    seen_ode2 = true;
    return 6;
  }
  if (starts("downsample")) return seen_ode2 ? 7 : 5;
  if (starts("mhsa")) return 8;
  return 9;  // head BN+ReLU+GAP, FC
}

template <typename Field>
double median_over(const std::vector<LedgerSample>& samples, Field field) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const auto& s : samples) v.push_back(field(s));
  return median(v);
}

void print_ledger(const std::vector<LedgerSample>& samples, std::vector<nn::Module*>& kids,
                  index_t image_size, index_t steps) {
  const double wall = median_over(samples, [](const LedgerSample& s) { return s.wall_ms; });

  std::array<std::int64_t, kStages.size()> live{}, plan_macs{}, plan_cycles{};
  index_t hw = image_size;
  for (std::size_t st = 0; st < kStages.size(); ++st) {
    for (std::size_t c = kStages[st].first; c < kStages[st].last; ++c) {
      live[st] += count_macs(*kids[c], hw);
    }
  }
  const auto plan = hls::plan_proposed_model(image_size, steps);
  bool seen_ode2 = false;
  for (const auto& layer : plan.layers) {
    const std::size_t st = plan_stage(layer.name, seen_ode2);
    plan_macs[st] += layer.macs;
    plan_cycles[st] += layer.cycles;
  }
  plan_cycles[8] += plan.mhsa_cycles();

  std::printf("\nper-layer ledger (%zu traced passes, medians; chain wall %.3f ms)\n",
              samples.size(), wall);
  std::printf("  %-18s %10s %7s %14s %14s %14s\n", "row", "host ms", "share", "live MACs",
              "plan MACs", "plan cycles");
  for (std::size_t st = 0; st < kStages.size(); ++st) {
    const double ms = median_over(samples, [&](const LedgerSample& s) { return s.stage_ms[st]; });
    std::printf("  %-18s %10.3f %6.1f%% %14lld %14lld %14lld%s\n", kStages[st].metric, ms,
                100.0 * ms / wall, static_cast<long long>(live[st]),
                static_cast<long long>(plan_macs[st]), static_cast<long long>(plan_cycles[st]),
                live[st] == plan_macs[st] ? "" : "  MISMATCH");
  }
  std::printf("  (stem.bn carries the plan's stem BN+ReLU+pool; ode3 plan cycles include %lld\n"
              "   MHSA cycles; live MACs exclude the MHSA core, which the plan prices by cycles)\n",
              static_cast<long long>(plan.mhsa_cycles()));
  std::printf("  %-18s %10s %7s\n", "inside ODE blocks", "host ms", "share");
  for (std::size_t r = 0; r < kInnerMetrics.size(); ++r) {
    const double ms = median_over(samples, [&](const LedgerSample& s) { return s.inner_ms[r]; });
    std::printf("  %-18s %10.3f %6.1f%%%s\n", kInnerMetrics[r], ms, 100.0 * ms / wall,
                r % 4 == 3 ? "  (residual: block - dynamics)" : "");
  }
}

Result run_classifier(Mode mode, index_t batch, std::uint64_t seed, double seconds, bool trace) {
  Result res;
  // Inputs come from the seed; the model weights do not (Options::seed).
  nt::Rng rng(seed);
  std::vector<Tensor> images;
  for (std::size_t i = 0; i < kImagePool; ++i) images.push_back(rng.rand(Shape{1, 3, 96, 96}));

  // Float reference logits per image, from a model of the same weights.
  std::vector<Tensor> ref_rows;
  {
    core::LightweightTransformer ref;
    ref.model().train(false);
    for (const auto& img : images) ref_rows.push_back(ref.predict_logits(img));
  }
  // Calls cycle over `inputs`; float_b8 row i must equal the batch-1 logits
  // of image i bitwise (the batch-invariance contract).
  std::vector<Tensor> inputs, want;
  const auto per_call = static_cast<std::size_t>(batch);
  for (std::size_t i = 0; i + per_call <= kImagePool; i += per_call) {
    inputs.push_back(concat_rows(images, i, per_call));
    want.push_back(concat_rows(ref_rows, i, per_call));
  }
  std::vector<Tensor> first_seen(inputs.size());
  auto check = [&](const Tensor& got, std::size_t k) {
    if (mode == Mode::kFloat) return bitwise_equal(got, want[k]);
    if (!within_tolerance(got, want[k], kFixedTolerance)) return false;
    if (first_seen[k].numel() == 0) {
      first_seen[k] = got;
      return true;
    }
    return bitwise_equal(got, first_seen[k]);  // bitwise repeatable
  };

  // Setup: construct model (+ executor / offload) and produce the first
  // checked result, several times; the last system is the one measured. The
  // previous system is torn down first, so peak_rss_mb sees one at a time.
  std::vector<double> setup_s;
  std::unique_ptr<Classifier> sut;
  for (std::size_t r = 0; r < kSetups; ++r) {
    sut.reset();
    const auto t0 = Clock::now();
    sut = std::make_unique<Classifier>(mode);
    const Tensor y = sut->call(inputs[0]);
    const bool ok = check(y, 0);
    setup_s.push_back(ms_since(t0) / 1e3);
    res.setup_ok = res.setup_ok && ok;
  }
  print_setups(setup_s);

  // Untraced closed loop. With --trace 1 this half-length pass only provides
  // the untraced wall time the trace overhead is measured against.
  const double untraced_s = trace ? seconds / 2 : seconds;
  std::vector<double> lat_ms, ps_ms, ip_ms;
  rt::DeviceCounters pl;
  if (sut->offload) (void)sut->offload->accelerator().take_counters();
  const auto t_run = Clock::now();
  for (std::size_t i = 0; lat_ms.empty() || ms_since(t_run) < untraced_s * 1e3; ++i) {
    const std::size_t k = i % inputs.size();
    const auto t0 = Clock::now();
    bool ok = false;
    try {
      const Tensor y = sut->call(inputs[k]);
      lat_ms.push_back(ms_since(t0));
      ok = check(y, k);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: call failed: %s\n", e.what());
      lat_ms.push_back(ms_since(t0));
    }
    res.count(ok);
    if (sut->offload) {
      const auto& t = sut->offload->last_timing();
      ps_ms.push_back(t.ps_ms);
      ip_ms.push_back(lat_ms.back() - t.ps_ms);
      pl = sut->offload->accelerator().take_counters();
    }
  }
  const double elapsed_s = ms_since(t_run) / 1e3;
  std::printf("%zu calls of batch %lld in %.3f s\n", lat_ms.size(), static_cast<long long>(batch),
              elapsed_s);
  if (sut->offload) {
    std::printf("offload: PS %.3f ms host, PL %.6f ms simulated per image\n", median(ps_ms),
                sut->offload->last_timing().pl_ms);
  }

  auto& v = res.values;
  if (!trace) {
    v["setup_s"] = median(setup_s);
    v["latency_p50_ms"] = quantile(lat_ms, 0.5);
    v["latency_p90_ms"] = quantile(lat_ms, 0.9);
    v["items_per_s"] = static_cast<double>(lat_ms.size() * per_call) / elapsed_s;
    v["peak_rss_mb"] = peak_rss_mb();
    return res;
  }

  // Traced pass: the ledger.
  auto kids = top_level_layers(*sut->lt);
  std::vector<LedgerSample> samples;
  obs::Tracer::instance().set_enabled(true);
  const auto t_traced = Clock::now();
  for (std::size_t i = 0; samples.empty() || (ms_since(t_traced) < seconds / 2 * 1e3 &&
                                               samples.size() < kMaxTracedIterations);
       ++i) {
    const std::size_t k = i % inputs.size();
    // The chain must reproduce the untraced call bitwise.
    if (mode != Mode::kFloat && first_seen[k].numel() == 0) {
      res.count(check(sut->call(inputs[k]), k));
    }
    const Tensor& ref = mode == Mode::kFloat ? want[k] : first_seen[k];
    if (mode == Mode::kFixed) {
      samples.push_back(ledger_pass(FixedPath{*sut->exec}, kids, inputs[k], ref));
    } else {
      samples.push_back(ledger_pass(FloatPath{}, kids, inputs[k], ref));
    }
    res.count(samples.back().ok);
  }
  obs::Tracer::instance().set_enabled(false);

  const auto& opts = sut->lt->options();
  print_ledger(samples, kids, opts.image_size, opts.solver_steps);
  for (std::size_t st = 0; st < kStages.size(); ++st) {
    v[kStages[st].metric] =
        median_over(samples, [&](const LedgerSample& s) { return s.stage_ms[st]; });
  }
  for (std::size_t r = 0; r < kInnerMetrics.size(); ++r) {
    v[kInnerMetrics[r]] =
        median_over(samples, [&](const LedgerSample& s) { return s.inner_ms[r]; });
  }
  if (sut->offload) {
    v["rt.ps_host_ms"] = median(ps_ms);
    v["hls.ip_host_ms"] = median(ip_ms);
    v["rt.pl_dma_cycles"] = static_cast<double>(pl.dma_cycles);
    v["rt.pl_ip_cycles"] = static_cast<double>(pl.compute_cycles);
    v["rt.dma_bytes_in"] = static_cast<double>(pl.dma_bytes_in);
    v["rt.dma_bytes_out"] = static_cast<double>(pl.dma_bytes_out);
  }
  v["coverage_pct"] = 100.0 * median_over(samples, [](const LedgerSample& s) {
                        double sum = 0.0;
                        for (double ms : s.stage_ms) sum += ms;
                        return sum / s.wall_ms;
                      });
  const double traced_wall = median_over(samples, [](const LedgerSample& s) { return s.wall_ms; });
  v["trace_overhead_pct"] = 100.0 * (traced_wall / median(lat_ms) - 1.0);
  return res;
}

// ---- serving: the MHSA engine under open- and closed-loop load -----------------

serve::EngineConfig serve_config() {
  serve::EngineConfig cfg;
  cfg.point = hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed);
  cfg.backend = serve::Backend::kFpgaFixed;
  cfg.workers = 2;
  cfg.queue_capacity = 256;
  cfg.batcher.max_batch = 8;
  return cfg;
}

hls::MhsaWeights paper_mhsa_weights(core::LightweightTransformer& lt) {
  return hls::MhsaWeights::from_module(lt.model().mhsa_block()->mhsa());
}

/// The response bitwise equal to `want`; a failed request is a mismatch.
bool same_output(std::future<Tensor>& response, const Tensor& want) {
  try {
    return bitwise_equal(response.get(), want);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: request failed: %s\n", e.what());
    return false;
  }
}

struct ServeRun {
  std::vector<double> lat_a_ms, late_ms, submit_us;
  std::int64_t attempted = 0, failed = 0, within_limit = 0;
  double a_s = 0.0, b_s = 0.0;
  std::int64_t b_completed = 0;
  serve::EngineStats before, after_a, after_b;

  /// Phase B requests completed per second.
  [[nodiscard]] double capacity() const { return static_cast<double>(b_completed) / b_s; }
};

/// Phase A: open loop at kServeRate for `a_s`, latency from each request's due
/// time, stamped when its future is collected in submission order. Phase B:
/// closed loop with kServeInFlight requests outstanding for `b_s`.
ServeRun serve_phases(serve::InferenceEngine& engine, const std::vector<Tensor>& maps,
                      const std::vector<Tensor>& refs, double a_s, double b_s) {
  ServeRun run;
  run.a_s = a_s;
  run.before = engine.stats();
  struct Pending {
    std::future<Tensor> future;
    Clock::time_point due;
    bool submitted = false;
  };
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(kServeRate * a_s)));
  std::vector<Pending> pending(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t published = 0;  // guarded by mu
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto period = std::chrono::duration<double>(1.0 / kServeRate);
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      Pending p;
      p.due = start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
      std::this_thread::sleep_until(p.due);
      const auto t0 = Clock::now();
      run.late_ms.push_back(std::chrono::duration<double, std::milli>(t0 - p.due).count());
      try {
        p.future = engine.submit(maps[i % maps.size()]);
        p.submitted = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: submit refused: %s\n", e.what());
      }
      run.submit_us.push_back(ms_since(t0) * 1e3);
      std::lock_guard lk(mu);
      pending[i] = std::move(p);
      published = i + 1;
      cv.notify_one();
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    {
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return published > i; });
    }
    Pending& p = pending[i];
    const bool ok = p.submitted && same_output(p.future, refs[i % maps.size()]);
    const double lat = std::chrono::duration<double, std::milli>(Clock::now() - p.due).count();
    run.lat_a_ms.push_back(lat);
    ++run.attempted;
    if (!ok) ++run.failed;
    if (ok && lat <= kServeLimitMs) ++run.within_limit;
  }
  generator.join();
  run.after_a = engine.stats();

  std::deque<std::pair<std::future<Tensor>, std::size_t>> window;
  std::size_t next = 0;
  auto submit_next = [&] {
    const std::size_t k = next++ % maps.size();
    ++run.attempted;
    try {
      window.emplace_back(engine.submit(maps[k]), k);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: submit refused: %s\n", e.what());
      ++run.failed;
    }
  };
  const auto t_b = Clock::now();
  for (std::size_t i = 0; i < kServeInFlight; ++i) submit_next();
  while (!window.empty()) {
    auto [future, k] = std::move(window.front());
    window.pop_front();
    if (same_output(future, refs[k])) {
      ++run.b_completed;
    } else {
      ++run.failed;
    }
    if (ms_since(t_b) < b_s * 1e3) submit_next();
  }
  run.b_s = ms_since(t_b) / 1e3;
  run.after_b = engine.stats();
  return run;
}

double rows_per_batch(const serve::EngineStats& from, const serve::EngineStats& to) {
  const auto batches = to.batches - from.batches;
  if (batches == 0) return 0.0;
  return static_cast<double>(to.rows - from.rows) / static_cast<double>(batches);
}

Result run_serve(std::uint64_t seed, double seconds, bool trace) {
  Result res;
  nt::Rng rng(seed);
  std::vector<Tensor> maps;
  for (std::size_t i = 0; i < kMapPool; ++i) maps.push_back(rng.rand(Shape{64, 6, 6}));

  // References: a direct MhsaAccelerator::execute of every map.
  const auto cfg = serve_config();
  std::vector<Tensor> refs;
  {
    core::LightweightTransformer lt;
    rt::DdrMemory ddr;
    rt::MhsaAccelerator accel(std::make_unique<hls::MhsaIpCore>(cfg.point, paper_mhsa_weights(lt)),
                              ddr);
    for (const auto& m : maps) {
      refs.push_back(accel.execute(m.reshape(Shape{1, 64, 6, 6})).reshape(m.shape()));
    }
  }

  auto make_engine = [&] {
    core::LightweightTransformer lt;
    return std::make_unique<serve::InferenceEngine>(cfg, paper_mhsa_weights(lt));
  };
  std::vector<double> setup_s;
  std::unique_ptr<serve::InferenceEngine> engine;
  for (std::size_t r = 0; r < kSetups; ++r) {
    engine.reset();  // one engine (and its workers) alive at a time, as above
    const auto t0 = Clock::now();
    engine = make_engine();
    auto first = engine->submit(maps[0]);
    const bool ok = same_output(first, refs[0]);
    setup_s.push_back(ms_since(t0) / 1e3);
    res.setup_ok = res.setup_ok && ok;
  }
  print_setups(setup_s);

  const double share = trace ? seconds / 2 : seconds;
  const double a_s = share * kServeShareA, b_s = share - a_s;
  const ServeRun run = serve_phases(*engine, maps, refs, a_s, b_s);
  std::printf("phase A: %zu requests at %.0f/s, p50 %.3f ms, p99 %.3f ms (p99 not gated)\n"
              "phase B: %lld requests with %zu in flight in %.3f s, %.1f/s\n",
              run.lat_a_ms.size(), kServeRate, quantile(run.lat_a_ms, 0.5),
              quantile(run.lat_a_ms, 0.99), static_cast<long long>(run.b_completed),
              kServeInFlight, run.b_s, run.capacity());
  res.attempted = run.attempted;
  res.failed = run.failed;
  auto& v = res.values;
  if (!trace) {
    v["setup_s"] = median(setup_s);
    v["latency_p50_ms"] = quantile(run.lat_a_ms, 0.5);
    v["latency_p90_ms"] = quantile(run.lat_a_ms, 0.9);
    v["items_per_s"] = run.capacity();
    v["peak_rss_mb"] = peak_rss_mb();
    return res;
  }

  // Traced pass on a fresh engine, so its stats() cover this pass alone.
  engine.reset();
  engine = make_engine();
  obs::Tracer::instance().set_enabled(true);
  const ServeRun traced = serve_phases(*engine, maps, refs, a_s, b_s);
  obs::Tracer::instance().set_enabled(false);
  res.attempted += traced.attempted;
  res.failed += traced.failed;
  const auto& end = traced.after_b;
  const double rows = static_cast<double>(end.rows - traced.before.rows);
  rt::DeviceCounters pl;
  for (const auto& [backend, c] : end.devices) pl += c;
  v["rt.pl_dma_cycles"] = static_cast<double>(pl.dma_cycles) / rows;
  v["rt.pl_ip_cycles"] = static_cast<double>(pl.compute_cycles) / rows;
  v["rt.dma_bytes_in"] = static_cast<double>(pl.dma_bytes_in) / rows;
  v["rt.dma_bytes_out"] = static_cast<double>(pl.dma_bytes_out) / rows;
  v["serve.submit_p99_us"] = quantile(traced.submit_us, 0.99);
  v["serve.queue_wait_p50_us"] = traced.after_a.queue_wait_p50_us;
  v["serve.queue_wait_p99_us"] = traced.after_a.queue_wait_p99_us;
  v["serve.batch_rows_mean"] = rows_per_batch(traced.before, traced.after_a);
  v["serve.batch_rows_mean_sat"] = rows_per_batch(traced.after_a, end);
  v["serve.sim_cycles_per_request"] =
      static_cast<double>(end.sim_cycles - traced.before.sim_cycles) / rows;
  v["serve.retries"] = static_cast<double>(end.retries);
  v["serve.goodput_rps"] = static_cast<double>(traced.within_limit) / traced.a_s;
  v["serve.latency_p99_ms"] = quantile(traced.lat_a_ms, 0.99);
  v["loadgen.late_p99_ms"] = quantile(traced.late_ms, 0.99);
  v["trace_overhead_pct"] = 100.0 * (run.capacity() / traced.capacity() - 1.0);
  return res;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
      continue;
    }
    if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 && std::isfinite(a.seconds);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <float_b1|float_b8|fixed_b1|offload_b1|serve_fixed> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::string kernel = pin_gemm_kernel();
  // Only the traced pass records spans, whatever NODETR_TRACE says.
  obs::Tracer::instance().set_enabled(false);
  std::printf("bench_e2e: workload %s, seed %llu, %.3f s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("%s\n", nt::tune::describe(nt::tune::gemm_config()).c_str());
  std::printf("gemm pin: %s, threads: %u\n", kernel.c_str(), std::thread::hardware_concurrency());

  Result res;
  try {
    const std::string& w = args.workload;
    if (w == "float_b1") {
      res = run_classifier(Mode::kFloat, 1, args.seed, args.seconds, args.trace);
    } else if (w == "float_b8") {
      res = run_classifier(Mode::kFloat, 8, args.seed, args.seconds, args.trace);
    } else if (w == "fixed_b1") {
      res = run_classifier(Mode::kFixed, 1, args.seed, args.seconds, args.trace);
    } else if (w == "offload_b1") {
      res = run_classifier(Mode::kOffload, 1, args.seed, args.seconds, args.trace);
    } else if (w == "serve_fixed") {
      res = run_serve(args.seed, args.seconds, args.trace);
    } else {
      std::fprintf(stderr, "bench_e2e: unknown workload %s\n", w.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  res.print(args.trace);
  return res.correct() ? 0 : 1;
}
