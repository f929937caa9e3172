// Kernel microbenchmarks (google-benchmark): the primitive operations the
// models are built from — each GEMM microkernel alone, GEMM, convolution
// (the paper's strided convs among them), depthwise-separable conv, max-pool, software MHSA, the bit-accurate fixed-point MHSA
// datapath, and ODE solver steps.
//
// Besides the console table, a machine-readable BENCH_kernels.json is written
// to $NODETR_BENCH_JSON_DIR (default: cwd) with per-benchmark CPU time and
// GFLOP/s, plus frozen "seed_" baselines measured on the pre-blocked kernels
// so the speedup trajectory stays diffable across PRs.
#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "nodetr/fx/qops.hpp"
#include "nodetr/hls/mhsa_ip.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/pool.hpp"
#include "nodetr/ode/solver.hpp"
#include "nodetr/tensor/arena.hpp"
#include "nodetr/tensor/conv.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "nodetr/tensor/rng.hpp"
#include "nodetr/tensor/simd.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;
namespace nn = nodetr::nn;
namespace hls = nodetr::hls;
namespace ode = nodetr::ode;

namespace {

/// flops-per-iteration by full benchmark name ("BM_Gemm/256"), filled in by
/// the benchmark bodies and consumed when the JSON report is assembled.
std::map<std::string, double>& flops_registry() {
  static std::map<std::string, double> m;
  return m;
}

void set_flops(benchmark::State& state, const std::string& name, double flops_per_iter) {
  flops_registry()[name] = flops_per_iter;
  state.counters["GFLOPS"] =
      benchmark::Counter(flops_per_iter, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
}

}  // namespace

static void BM_Gemm(benchmark::State& state) {
  const nt::index_t n = state.range(0);
  nt::Rng rng(1);
  auto a = rng.randn(nt::Shape{n, n});
  auto b = rng.randn(nt::Shape{n, n});
  for (auto _ : state) benchmark::DoNotOptimize(nt::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
  set_flops(state, "BM_Gemm/" + std::to_string(n), 2.0 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// The skinny QK^T score product of one attention head at the paper's
/// proposed geometry: m = n = seq (6x6 spatial), k = head_dim (64ch / 4
/// heads). Small enough that packing overhead and tile-loop parallelism —
/// not FMA throughput — dominate, which is exactly what square benches hide.
static void BM_GemmAttention(benchmark::State& state) {
  const nt::index_t seq = state.range(0), hd = state.range(1);
  nt::Rng rng(8);
  auto q = rng.randn(nt::Shape{seq, hd});
  auto k = rng.randn(nt::Shape{seq, hd});
  for (auto _ : state) benchmark::DoNotOptimize(nt::matmul_nt(q, k));
  set_flops(state, "BM_GemmAttention/" + std::to_string(seq) + "/" + std::to_string(hd),
            2.0 * seq * seq * hd);
}
BENCHMARK(BM_GemmAttention)->Args({36, 16});

/// One microkernel alone: an MR x NR tile at kc = 256, A read in place from
/// an L1-resident row-major MR x kc block (a plain view's strides, kc and 1)
/// and B from an L1-resident packed panel, on one thread, with no packing
/// and no pool. It reads the kernel's own throughput, so a change that spills
/// its accumulators to the stack shows up here. Registered in main() once per
/// available kernel.
void BM_Microkernel(benchmark::State& state, const nt::simd::MicroKernel& kern) {
  constexpr int kKc = 256;
  auto& arena = nt::ScratchArena::local();
  nt::ScratchArena::Scope scope(arena);
  float* a = arena.alloc<float>(static_cast<std::size_t>(kKc * kern.mr));
  float* bp = arena.alloc<float>(static_cast<std::size_t>(kKc * kern.nr));
  float* c = arena.alloc<float>(static_cast<std::size_t>(kern.mr * kern.nr));
  nt::Rng rng(9);
  for (nt::index_t i = 0; i < kKc * kern.mr; ++i) a[i] = rng.normal();
  for (nt::index_t i = 0; i < kKc * kern.nr; ++i) bp[i] = rng.normal();
  for (auto _ : state) {
    kern.fn(kKc, a, kKc, 1, bp, kern.nr, c, kern.nr, kern.mr, kern.nr, /*first=*/true);
    benchmark::DoNotOptimize(c);
    benchmark::ClobberMemory();
  }
  set_flops(state, std::string("BM_Microkernel/") + kern.name,
            2.0 * kKc * static_cast<double>(kern.mr * kern.nr));
}

static void BM_Conv2d(benchmark::State& state) {
  const nt::index_t c = state.range(0);
  nt::Conv2dGeom g{.in_channels = c, .out_channels = c, .kernel = 3, .stride = 1, .pad = 1};
  nt::Rng rng(2);
  auto x = rng.randn(nt::Shape{1, c, 12, 12});
  auto w = rng.randn(nt::Shape{c, c, 3, 3});
  for (auto _ : state) benchmark::DoNotOptimize(nt::conv2d(x, w, {}, g));
  // 12x12 output spatial positions, 3x3*c MACs per output channel element.
  set_flops(state, "BM_Conv2d/" + std::to_string(c),
            2.0 * 12 * 12 * static_cast<double>(c) * c * 3 * 3);
}
BENCHMARK(BM_Conv2d)->Arg(16)->Arg(64);

/// The paper model's 3x3 stride-2 pad-1 convs, as the inference forward runs
/// them (an implicit GEMM whose B panels are gathered from the planes): the
/// stem 3->64 at 96x96 and the downsample bodies ds1 64->128 at 24x24 and
/// ds2 128->256 at 12x12, batch 1 and 8.
static void BM_ConvPaper(benchmark::State& state) {
  const nt::index_t cin = state.range(0), cout = state.range(1), hw = state.range(2),
                    batch = state.range(3);
  nt::Rng rng(10);
  nn::Conv2d conv(cin, cout, 3, 2, 1, /*bias=*/false, rng);
  auto x = rng.randn(nt::Shape{batch, cin, hw, hw});
  const nn::InferenceScope inference(conv);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  const double out = static_cast<double>(hw / 2) * static_cast<double>(hw / 2);
  set_flops(state,
            "BM_ConvPaper/cin:" + std::to_string(cin) + "/cout:" + std::to_string(cout) +
                "/hw:" + std::to_string(hw) + "/batch:" + std::to_string(batch),
            2.0 * static_cast<double>(batch * cout * cin * 9) * out);
}
BENCHMARK(BM_ConvPaper)
    ->ArgNames({"cin", "cout", "hw", "batch"})
    ->ArgsProduct({{3}, {64}, {96}, {1, 8}})
    ->ArgsProduct({{64}, {128}, {24}, {1, 8}})
    ->ArgsProduct({{128}, {256}, {12}, {1, 8}});

static void BM_DepthwiseSeparable(benchmark::State& state) {
  const nt::index_t c = state.range(0);
  nt::Rng rng(3);
  nn::DepthwiseSeparableConv dsc(c, c, 3, 1, 1, rng);
  auto x = rng.randn(nt::Shape{1, c, 12, 12});
  for (auto _ : state) benchmark::DoNotOptimize(dsc.forward(x));
}
BENCHMARK(BM_DepthwiseSeparable)->Arg(16)->Arg(64);

/// The dsODENet DSC at the paper's stage shapes (64x24x24, 128x12x12), batch
/// 1 and 8, on both forward paths: recording (keeps the depthwise planes for
/// backward) and inference (under an InferenceScope, planes in scratch).
static void BM_DepthwiseSeparablePaper(benchmark::State& state) {
  const nt::index_t c = state.range(0), hw = state.range(1), batch = state.range(2);
  nt::Rng rng(3);
  nn::DepthwiseSeparableConv dsc(c, c, 3, 1, 1, rng);
  auto x = rng.randn(nt::Shape{batch, c, hw, hw});
  std::optional<nn::InferenceScope> inference;
  if (state.range(3) != 0) inference.emplace(dsc);
  for (auto _ : state) benchmark::DoNotOptimize(dsc.forward(x));
  set_flops(state,
            "BM_DepthwiseSeparablePaper/c:" + std::to_string(c) + "/hw:" + std::to_string(hw) +
                "/batch:" + std::to_string(batch) + "/inference:" +
                std::to_string(state.range(3)),
            2.0 * static_cast<double>(batch * hw * hw * c) * static_cast<double>(9 + c));
}
BENCHMARK(BM_DepthwiseSeparablePaper)
    ->ArgNames({"c", "hw", "batch", "inference"})
    ->ArgsProduct({{64}, {24}, {1, 8}, {0, 1}})
    ->ArgsProduct({{128}, {12}, {1, 8}, {0, 1}});

/// The stem's 3x3 stride-2 pad-1 max-pool at the paper's shape (64x48x48),
/// batch 1 and 8, on the inference forward (no argmax kept).
static void BM_MaxPoolPaper(benchmark::State& state) {
  const nt::index_t batch = state.range(0);
  nt::Rng rng(8);
  nn::MaxPool2d pool(3, 2, 1);
  auto x = rng.randn(nt::Shape{batch, 64, 48, 48});
  const nn::InferenceScope inference(pool);
  for (auto _ : state) benchmark::DoNotOptimize(pool.forward(x));
}
BENCHMARK(BM_MaxPoolPaper)->ArgName("batch")->Arg(1)->Arg(8);

static void BM_MhsaSoftware(benchmark::State& state) {
  const nt::index_t d = state.range(0);
  nt::Rng rng(4);
  nn::MhsaConfig cfg{.dim = d, .heads = 4, .height = 6, .width = 6,
                     .attention = nn::AttentionKind::kRelu,
                     .pos = nn::PosEncodingKind::kRelative2d, .layer_norm_out = true};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  mhsa.train(false);
  auto x = rng.randn(nt::Shape{1, d, 6, 6});
  for (auto _ : state) benchmark::DoNotOptimize(mhsa.forward(x));
}
BENCHMARK(BM_MhsaSoftware)->Arg(64)->Arg(128);

/// The bit-accurate fixed MHSA IP at the paper's geometry (6x6 map, 4 heads,
/// 32(16)-24(8)), one START of `batch` images.
static void mhsa_fixed_ip(benchmark::State& state, nt::index_t batch) {
  const nt::index_t d = state.range(0);
  nt::Rng rng(5);
  nn::MhsaConfig cfg{.dim = d, .heads = 4, .height = 6, .width = 6,
                     .attention = nn::AttentionKind::kRelu,
                     .pos = nn::PosEncodingKind::kRelative2d, .layer_norm_out = true};
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  hls::MhsaDesignPoint point;
  point.dim = d;
  point.height = point.width = 6;
  point.heads = 4;
  point.dtype = hls::DataType::kFixed;
  hls::MhsaIpCore ip(point, hls::MhsaWeights::from_module(mhsa));
  auto x = rng.randn(nt::Shape{batch, d, 6, 6});
  for (auto _ : state) benchmark::DoNotOptimize(ip.run(x));
}

static void BM_MhsaFixedIp(benchmark::State& state) { mhsa_fixed_ip(state, 1); }
BENCHMARK(BM_MhsaFixedIp)->Arg(64);

/// Batch 8, the serving engine's max_batch: one START over 8 x 36 tokens.
static void BM_MhsaFixedIpBatch8(benchmark::State& state) { mhsa_fixed_ip(state, 8); }
BENCHMARK(BM_MhsaFixedIpBatch8)->Arg(64);

static void BM_QMatmul(benchmark::State& state) {
  const nt::index_t n = state.range(0);
  nt::Rng rng(6);
  auto a = fx::FixedTensor::from_float(rng.randn(nt::Shape{n, n}), {32, 16});
  auto b = fx::FixedTensor::from_float(rng.randn(nt::Shape{n, n}), {24, 8});
  for (auto _ : state) benchmark::DoNotOptimize(fx::qmatmul(a, b, {32, 16}));
  set_flops(state, "BM_QMatmul/" + std::to_string(n), 2.0 * n * n * n);
}
BENCHMARK(BM_QMatmul)->Arg(64)->Arg(128);

static void BM_OdeSolve(benchmark::State& state) {
  const auto kind = static_cast<ode::SolverKind>(state.range(0));
  auto solver = ode::make_solver(kind);
  nt::Rng rng(7);
  auto z0 = rng.randn(nt::Shape{64, 64});
  auto rhs = [](const nt::Tensor& z, float) { return z * 0.1f; };
  for (auto _ : state) benchmark::DoNotOptimize(solver->integrate(z0, 0.0f, 1.0f, 8, rhs));
}
BENCHMARK(BM_OdeSolve)
    ->Arg(static_cast<int>(ode::SolverKind::kEuler))
    ->Arg(static_cast<int>(ode::SolverKind::kMidpoint))
    ->Arg(static_cast<int>(ode::SolverKind::kRk4));

namespace {

/// The display reporter google-benchmark would make from its own flags
/// (--benchmark_format, --benchmark_color, --benchmark_counters_tabular),
/// with every completed run also captured so main() can assemble the JSON
/// report after the benchmarks finish.
class CapturingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override { return display_->ReportContext(context); }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (!run.error_occurred) captured_.push_back(run);
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

  [[nodiscard]] const std::vector<Run>& captured() const { return captured_; }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_{
      benchmark::CreateDefaultDisplayReporter()};
  std::vector<Run> captured_;
};

/// Baselines measured at the seed commit (naive triple-loop kernels, same
/// host class, Release build). Frozen so BENCH_kernels.json always carries
/// the before/after pair.
struct SeedBaseline {
  const char* name;
  double cpu_ms;
};
constexpr SeedBaseline kSeedBaselines[] = {
    {"BM_Gemm/64", 0.133},   {"BM_Gemm/128", 0.906},     {"BM_Gemm/256", 8.10},
    {"BM_Conv2d/16", 0.170}, {"BM_Conv2d/64", 2.386},    {"BM_MhsaFixedIp/64", 0.985},
    {"BM_QMatmul/64", 0.242}, {"BM_QMatmul/128", 2.387},
    // Shapes added after the seed kernels were replaced; extrapolated from
    // the measured naive BM_Gemm/256 rate (~4.1 GFLOP/s) so the before/after
    // pair stays available for them too.
    {"BM_Gemm/512", 64.8},   {"BM_GemmAttention/36/16", 0.0101},
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Resolve the GEMM config BEFORE any benchmark is timed, and print it so
  // every reported GFLOP/s number is attributable to a specific microkernel
  // + blocking.
  const auto& kcfg = nt::tune::gemm_config();
  std::printf("%s\n", nt::tune::describe(kcfg).c_str());
  for (const auto& kern : nt::simd::available_kernels()) {
    benchmark::RegisterBenchmark((std::string("BM_Microkernel/") + kern.name).c_str(),
                                 BM_Microkernel, std::cref(kern));
  }
  CapturingReporter reporter;  // after Initialize(), which parses the display flags
  benchmark::RunSpecifiedBenchmarks(&reporter);

  nodetr::bench::JsonReport report("kernels");
  const auto& caches = nt::tune::host_caches();
  report.set("gemm_kernel_id", static_cast<std::int64_t>(kcfg.kernel->id));
  report.set("gemm_mr", kcfg.kernel->mr);
  report.set("gemm_nr", kcfg.kernel->nr);
  report.set("gemm_mc", kcfg.mc);
  report.set("gemm_kc", kcfg.kc);
  report.set("gemm_nc", kcfg.nc);
  report.set("cpu_l1d_bytes", static_cast<std::int64_t>(caches.l1d));
  report.set("cpu_l2_bytes", static_cast<std::int64_t>(caches.l2));
  report.set("cpu_l3_bytes", static_cast<std::int64_t>(caches.l3));
  for (const auto& seed : kSeedBaselines) {
    report.set(std::string("seed_") + seed.name + "_cpu_ms", seed.cpu_ms);
    const auto it = flops_registry().find(seed.name);
    if (it != flops_registry().end()) {
      report.set(std::string("seed_") + seed.name + "_gflops",
                 it->second / (seed.cpu_ms * 1e-3) / 1e9);
    }
  }
  for (const auto& run : reporter.captured()) {
    const std::string name = run.benchmark_name();
    if (run.iterations <= 0) continue;
    const double sec_per_iter = run.cpu_accumulated_time / static_cast<double>(run.iterations);
    report.set(name + "_cpu_ms", sec_per_iter * 1e3);
    const auto it = flops_registry().find(name);
    if (it != flops_registry().end() && sec_per_iter > 0.0) {
      report.set(name + "_gflops", it->second / sec_per_iter / 1e9);
    }
  }
  report.write();
  return 0;
}
