// Serving demo: stand up the batched inference engine over the simulated
// MHSA accelerator, fire concurrent clients at it, and print the stats the
// engine exposes (plus the obs metrics the serving path records).
//
//   ./serve_demo [requests_per_client] [--devices N] [--hot-swap]
//                                                    (default 16, 0, off)
//
// --devices N stands up a cluster-mode fleet instead of the single shared
// accelerator: N simulated boards at alternating 200/100 MHz clocks behind
// the cost-model router, with the per-board routing/breaker stats printed at
// the end (faster boards absorb proportionally more rows).
//
// --hot-swap runs a live model update after the client wave: a fine-tuned
// candidate is published into the engine's version registry, canaried into
// traffic (whole batches only), shadow-scored against the active version,
// and promoted — all while requests keep flowing, with the swap stats and
// version lifecycle printed at the end.
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "nodetr/nn/attention.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/tensor/tune.hpp"

namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace obs = nodetr::obs;
using nt::index_t;

int main(int argc, char** argv) {
  int per_client = 16;
  std::size_t n_devices = 0;
  bool hot_swap = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--devices" && i + 1 < argc) {
      n_devices = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::string_view(argv[i]) == "--hot-swap") {
      hot_swap = true;
    } else {
      per_client = std::atoi(argv[i]);
    }
  }
  constexpr int kClients = 4;

  // The paper's proposed MHSA geometry (64ch, 6x6, 4 heads), fixed-point.
  nt::Rng rng(42);
  nn::MhsaConfig cfg;
  cfg.dim = 64;
  cfg.heads = 4;
  cfg.height = 6;
  cfg.width = 6;
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  mhsa.train(false);

  serve::EngineConfig config;
  config.point = hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed);
  config.backend = serve::Backend::kFpgaFixed;
  config.workers = 2;
  config.queue_capacity = 32;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 2000;
  if (hot_swap) {
    // The demo candidate intentionally differs from the active version (the
    // whole point of an update), so give the canary a quality gate that
    // tolerates the nudge while still shadow-scoring every canary batch.
    config.hot_swap.canary_fraction = 0.5;
    config.hot_swap.min_canary_batches = 4;
    config.hot_swap.max_divergence = 0.05;
  }
  if (n_devices > 0) {
    // Fleet mode: one worker per simulated board, alternating clocks so the
    // router's cost model visibly skews rows toward the faster boards.
    config.devices.resize(n_devices);
    for (std::size_t d = 0; d < n_devices; ++d) {
      config.devices[d].name = "board" + std::to_string(d);
      config.devices[d].backend = serve::Backend::kFpgaFixed;
      config.devices[d].clock_mhz = d % 2 == 0 ? 200.0 : 100.0;
    }
  }
  serve::InferenceEngine engine(config, hls::MhsaWeights::from_module(mhsa));
  // Which GEMM kernel/blocking this process serves with — perf regressions
  // in the CPU backend are attributable only if this is in the log.
  std::printf("%s\n", nt::tune::describe(nt::tune::gemm_config()).c_str());
  if (n_devices > 0) {
    std::printf("engine: %zu-board fleet, backend %s, queue %zu per board, max_batch %lld\n",
                n_devices, serve::to_string(config.devices[0].backend), config.queue_capacity,
                static_cast<long long>(config.batcher.max_batch));
  } else {
    std::printf("engine: %d workers, backend %s, queue %zu (%s), max_batch %lld\n",
                static_cast<int>(config.workers), serve::to_string(config.backend),
                config.queue_capacity,
                config.policy == serve::BackpressurePolicy::kBlock ? "block" : "reject",
                static_cast<long long>(config.batcher.max_batch));
  }

  std::vector<std::thread> clients;
  std::mutex mu;  // guards rng and stdout
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        nt::Tensor x;
        {
          std::lock_guard lk(mu);
          x = rng.rand(nt::Shape{1 + (c + i) % 2, cfg.dim, cfg.height, cfg.width});
        }
        auto y = engine.submit(x).get();
        if (i == 0) {
          std::lock_guard lk(mu);
          std::printf("client %d: first response shape (%lld, %lld, %lld, %lld)\n", c,
                      static_cast<long long>(y.dim(0)), static_cast<long long>(y.dim(1)),
                      static_cast<long long>(y.dim(2)), static_cast<long long>(y.dim(3)));
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  if (hot_swap) {
    // Live model update walkthrough: a "fine-tuned" candidate (here: the
    // same weights nudged by a constant) rolls out via canary while traffic
    // keeps flowing.
    hls::MhsaWeights candidate = hls::MhsaWeights::from_module(mhsa);
    for (nt::Tensor* t : {&candidate.wq, &candidate.wk, &candidate.wv}) {
      float* p = t->data();
      for (index_t k = 0; k < t->numel(); ++k) p[k] += 1e-4f;
    }
    const auto id = engine.registry().publish(candidate, "demo fine-tune");
    std::printf("\n[hot-swap] published candidate v%llu; beginning canary\n",
                static_cast<unsigned long long>(id));
    engine.begin_swap(id);
    while (engine.swap_stats().canary_in_flight) {
      const nt::Tensor x = rng.rand(nt::Shape{1, cfg.dim, cfg.height, cfg.width});
      (void)engine.submit(x).get();
    }
    const auto swap = engine.swap_stats();
    std::printf("[hot-swap] active v%llu  canary batches %llu  shadow samples %llu  "
                "divergence mean %.3g max %.3g\n",
                static_cast<unsigned long long>(swap.active_version),
                static_cast<unsigned long long>(swap.canary_batches),
                static_cast<unsigned long long>(swap.shadow_samples), swap.divergence_mean,
                swap.divergence_max);
    std::printf("[hot-swap] commits %llu  rollbacks %llu  restages %llu  "
                "stage pause p50 %.1f us p99 %.1f us\n",
                static_cast<unsigned long long>(swap.swaps_committed),
                static_cast<unsigned long long>(swap.swaps_rolled_back),
                static_cast<unsigned long long>(swap.restages), swap.stage_p50_us,
                swap.stage_p99_us);
    for (const auto& v : engine.registry().list()) {
      std::printf("[hot-swap] registry v%llu [%s] %s\n",
                  static_cast<unsigned long long>(v.id), serve::to_string(v.state),
                  v.note.c_str());
    }
  }

  engine.shutdown();

  const auto stats = engine.stats();
  std::printf("\nsubmitted %llu  completed %llu  failed %llu  batches %llu  rows %llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.rows));
  std::printf("batch occupancy %.2f  simulated accelerator cycles %lld\n",
              stats.occupancy(config.batcher.max_batch),
              static_cast<long long>(stats.sim_cycles));
  auto& latency = obs::Registry::instance().histogram("serve.request_latency_us");
  std::printf("request latency: p50 %.0f us  p95 %.0f us  p99 %.0f us\n",
              latency.percentile(50), latency.percentile(95), latency.percentile(99));

  for (const auto& [backend, d] : stats.devices) {
    std::printf("device[%s]: starts %llu  dma in %llu B  dma out %llu B  "
                "weight bytes saved %llu B  stall cycles %llu  utilization %.1f%%\n",
                backend.c_str(), static_cast<unsigned long long>(d.starts),
                static_cast<unsigned long long>(d.dma_bytes_in),
                static_cast<unsigned long long>(d.dma_bytes_out),
                static_cast<unsigned long long>(d.weight_bytes_saved),
                static_cast<unsigned long long>(d.stall_cycles), d.utilization_pct());
  }
  for (const auto& [name, ds] : stats.device_stats) {
    std::printf("board[%s]: %s @ est %.2f us/row  rows %llu  batches %llu  retries %llu  "
                "breaker opens %llu closes %llu%s  busy cycles %lld\n",
                name.c_str(), ds.backend.c_str(), ds.est_us_per_row,
                static_cast<unsigned long long>(ds.rows),
                static_cast<unsigned long long>(ds.batches),
                static_cast<unsigned long long>(ds.retries),
                static_cast<unsigned long long>(ds.breaker_opens),
                static_cast<unsigned long long>(ds.breaker_closes),
                ds.breaker_open ? "  [OPEN]" : "",
                static_cast<long long>(ds.counters.total_cycles()));
  }
  std::printf("slo window: resolved %llu  goodput %.3f  queue-wait p99 %.0f us  "
              "latency p99 %.0f us  breaches %llu%s\n",
              static_cast<unsigned long long>(stats.slo.window_resolved()), stats.slo.goodput,
              stats.slo.queue_wait_p99_us, stats.slo.latency_p99_us,
              static_cast<unsigned long long>(stats.slo.breaches),
              stats.slo.breached() ? "  [BREACHED]" : "");
  return stats.failed == 0 && stats.completed == stats.submitted ? 0 : 1;
}
