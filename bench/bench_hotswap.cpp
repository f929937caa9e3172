// Hot-swap pause benchmark: what does a live model update cost the request
// path? The RCU handoff re-stages each worker's replicas at a batch boundary
// (build canary/shadow IP cores, swap the board IP on commit), so the only
// latency a swap can add is that boundary pause. The acceptance bar: the
// p99 stage pause must stay within ONE baseline batch latency — a swap may
// cost at most a batch, never a drain.
//
//   ./bench_hotswap [baseline-requests] [swaps]      (default 4000 200)
//
// Two closed-loop phases over an FPGA-float engine:
//   1. baseline — no swaps; per-request submit->get latency percentiles
//      define "one batch latency";
//   2. swap churn — the same traffic while the model hot-swaps over and
//      over (alternating two versions, every whole-request batch canaries,
//      promotion after one clean shadow-scored batch).
// Writes BENCH_hotswap.json. Exit 1 when the p99 stage pause exceeds one
// baseline batch latency (p99), any swap fails to reach a terminal commit,
// or any future fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace bench = nodetr::bench;
namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
using nt::index_t;
using Clock = std::chrono::steady_clock;

namespace {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

serve::EngineConfig engine_config(const hls::MhsaDesignPoint& point) {
  serve::EngineConfig cfg;
  cfg.point = point;
  cfg.backend = serve::Backend::kFpgaFloat;
  cfg.workers = 2;
  cfg.queue_capacity = 128;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_us = 100;
  // Swap policy: every whole-request batch canaries and one clean
  // shadow-scored batch promotes, so each swap's full stage->canary->commit
  // cycle completes in a handful of batches and the churn phase measures
  // many independent stage pauses.
  cfg.hot_swap.canary_fraction = 1.0;
  cfg.hot_swap.min_canary_batches = 1;
  cfg.hot_swap.max_divergence = 0.0;  // churn, not quality, is under test
  cfg.hot_swap.rollback_fault_burst = 0;
  cfg.hot_swap.rollback_slo_breaches = 0;
  cfg.hot_swap.swap_timeout_us = 60'000'000;
  return cfg;
}

/// One closed-loop request: submit -> get, returning the wall latency in µs.
double timed_request(serve::InferenceEngine& engine, const nt::Tensor& x) {
  const auto t0 = Clock::now();
  (void)engine.submit(x).get();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t baseline_requests =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4'000;
  const std::uint64_t swaps = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200;
  bench::header("hotswap", "live model update: swap pause vs batch latency");

  nt::Rng rng(42);
  nn::MhsaConfig cfg;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.height = 4;
  cfg.width = 4;
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  mhsa.train(false);
  const hls::MhsaWeights weights_a = hls::MhsaWeights::from_module(mhsa);
  hls::MhsaWeights weights_b = weights_a;
  for (nt::Tensor* t : {&weights_b.wq, &weights_b.wk, &weights_b.wv}) {
    float* p = t->data();
    for (index_t i = 0; i < t->numel(); ++i) p[i] += 0.05f;
  }
  hls::MhsaDesignPoint point;
  point.dim = cfg.dim;
  point.height = cfg.height;
  point.width = cfg.width;
  point.heads = cfg.heads;

  serve::InferenceEngine engine(engine_config(point), weights_a);
  const nt::Tensor x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});

  // Phase 1 — baseline batch latency (warm-up excluded from the sample).
  for (int i = 0; i < 64; ++i) (void)timed_request(engine, x);
  std::vector<double> baseline_us;
  baseline_us.reserve(baseline_requests);
  for (std::uint64_t i = 0; i < baseline_requests; ++i) {
    baseline_us.push_back(timed_request(engine, x));
  }
  const double base_p50 = percentile(baseline_us, 0.50);
  const double base_p99 = percentile(baseline_us, 0.99);

  // Phase 2 — swap churn under the same traffic.
  std::vector<double> churn_us;
  const auto churn_t0 = Clock::now();
  for (std::uint64_t s = 0; s < swaps; ++s) {
    const auto id = engine.registry().publish(s % 2 == 0 ? weights_b : weights_a,
                                              "bench swap " + std::to_string(s));
    engine.begin_swap(id);
    const auto conclude = Clock::now() + std::chrono::seconds(30);
    while (engine.swap_stats().canary_in_flight && Clock::now() < conclude) {
      churn_us.push_back(timed_request(engine, x));
    }
  }
  const double churn_wall_s =
      std::chrono::duration<double>(Clock::now() - churn_t0).count();
  engine.shutdown();

  const serve::SwapStats swap = engine.swap_stats();
  const serve::EngineStats stats = engine.stats();
  const double churn_p50 = percentile(churn_us, 0.50);
  const double churn_p99 = percentile(churn_us, 0.99);
  // The headline: a re-staging pause is at most one batch's worth of time.
  const double pause_ratio = base_p99 > 0.0 ? swap.stage_p99_us / base_p99 : 0.0;

  std::printf("  baseline  %7llu req   p50 %8.1f us   p99 %8.1f us\n",
              static_cast<unsigned long long>(baseline_requests), base_p50, base_p99);
  std::printf("  churn     %7zu req   p50 %8.1f us   p99 %8.1f us   (%llu swaps in %.2fs)\n",
              churn_us.size(), churn_p50, churn_p99,
              static_cast<unsigned long long>(swaps), churn_wall_s);
  std::printf("  stage pause            p50 %8.1f us   p99 %8.1f us   restages %llu\n",
              swap.stage_p50_us, swap.stage_p99_us,
              static_cast<unsigned long long>(swap.restages));
  std::printf("  swap pause p99 / baseline batch p99: %.2f   (bar: <= 1.0)\n", pause_ratio);
  std::printf("  commits %llu / %llu   rollbacks %llu   failed futures %llu\n",
              static_cast<unsigned long long>(swap.swaps_committed),
              static_cast<unsigned long long>(swaps),
              static_cast<unsigned long long>(swap.swaps_rolled_back),
              static_cast<unsigned long long>(stats.failed));

  bench::JsonReport report("hotswap");
  report.set("baseline_requests", static_cast<std::int64_t>(baseline_requests));
  report.set("baseline_p50_us", base_p50);
  report.set("baseline_p99_us", base_p99);
  report.set("churn_requests", static_cast<std::int64_t>(churn_us.size()));
  report.set("churn_p50_us", churn_p50);
  report.set("churn_p99_us", churn_p99);
  report.set("churn_wall_s", churn_wall_s);
  report.set("swaps", static_cast<std::int64_t>(swaps));
  report.set("swaps_committed", static_cast<std::int64_t>(swap.swaps_committed));
  report.set("swaps_rolled_back", static_cast<std::int64_t>(swap.swaps_rolled_back));
  report.set("restages", static_cast<std::int64_t>(swap.restages));
  report.set("stage_p50_us", swap.stage_p50_us);
  report.set("stage_p99_us", swap.stage_p99_us);
  report.set("stage_pause_ratio_p99", pause_ratio);
  report.set("failed", static_cast<std::int64_t>(stats.failed));
  report.write();

  // Exit bars: every swap reached a terminal commit, no future failed, and
  // the p99 stage pause stayed within one baseline batch latency.
  const bool ok = swap.swaps_committed == swaps && stats.failed == 0 &&
                  pause_ratio <= 1.0 && swap.stage_p99_us > 0.0;
  return ok ? 0 : 1;
}
