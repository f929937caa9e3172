// Overhead of observability v2 on the serving hot path.
//
// Two levels of measurement:
//   1. Microbench (ns/op): a disabled ScopedSpan, a dormant flight_event
//     (recording disabled — one relaxed atomic load, the "fault-site" cost
//     class), an *armed* flight_event (recording into the per-thread ring),
//     and an empty-loop baseline. When compiled with -DNODETR_OBS_NO_FLIGHT
//     the flight calls vanish entirely; this binary reports whichever build
//     it is.
//   2. Engine-level: wall requests/s through a CPU-backend InferenceEngine
//     with (a) flight recorder on (the always-on default), (b) flight
//     recorder off, and (c) full span tracing on as the worst case, in
//     kRounds rounds that alternate which of (a) and (b) runs first. Each
//     round gives one off/on ratio; the acceptance bar — the median ratio
//     says recorder-on costs < 5% vs recorder-off — is this binary's exit
//     code. One unpaired pair of runs spread several times wider than the
//     bar on unchanged code.
//
//   ./bench_obs_overhead [iters] [requests]   (default 20M / 192)
//
// Writes BENCH_obs.json with ns-per-op and requests/s for each mode, plus
// seed_* frozen baselines from the machine that authored this bench.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <vector>

#include "common.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace bench = nodetr::bench;
namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace obs = nodetr::obs;
using nt::index_t;
using Clock = std::chrono::steady_clock;

namespace {

double ns_per_iter(std::int64_t iters, const std::function<void(std::int64_t)>& op) {
  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < iters; ++i) op(i);
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()) /
         static_cast<double>(iters);
}

/// Wall requests/s of `requests` submits through a small CPU-backend engine
/// (the hot path every observability hook sits on; no simulated device so
/// the hooks dominate). Every run goes through one engine, so its workers
/// and their scratch are warm in every mode.
double engine_rps(serve::InferenceEngine& engine, const std::vector<nt::Tensor>& pool,
                  index_t requests) {
  std::vector<std::future<nt::Tensor>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  const auto t0 = Clock::now();
  for (index_t i = 0; i < requests; ++i) {
    futures.push_back(engine.submit(pool[static_cast<std::size_t>(i) % pool.size()]));
  }
  for (auto& f : futures) (void)f.get();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(requests) / wall;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Engine rounds. One round's ratio spread about ±6% on a 4-vCPU VM at 96
/// requests per run; the median of 21 stayed within -2.3..+1.5% over ten
/// processes of unchanged code, and 21 rounds of 96 take about a second.
constexpr int kRounds = 21;

}  // namespace

int main(int argc, char** argv) {
  std::int64_t iters = argc > 1 ? std::atoll(argv[1]) : 20'000'000;
  if (iters < 100) iters = 20'000'000;
  index_t requests = argc > 2 ? std::atoll(argv[2]) : 192;
  if (requests < 8) requests = 192;
  bench::header("obs", "observability overhead: spans, flight recorder, tracing");

  auto& tracer = obs::Tracer::instance();
  auto& flight = obs::FlightRecorder::instance();
  const bool tracer_was_enabled = tracer.enabled();
  tracer.set_enabled(false);

  // --- microbench -------------------------------------------------------
  std::int64_t sink = 0;
  const double empty_ns = ns_per_iter(iters, [&](std::int64_t i) { sink += i; });
  const double span_ns = ns_per_iter(iters, [&](std::int64_t i) {
    NODETR_TRACE_SCOPE("bench.obs.disabled");
    sink += i;
  });
  flight.set_enabled(false);
  const double flight_dormant_ns = ns_per_iter(iters, [&](std::int64_t i) {
    obs::flight_event(static_cast<std::uint64_t>(i), obs::FlightKind::kMark);
    sink += i;
  });
  flight.set_enabled(true);
  const double flight_armed_ns = ns_per_iter(iters / 4, [&](std::int64_t i) {
    obs::flight_event(static_cast<std::uint64_t>(i), obs::FlightKind::kMark);
    sink += i;
  });
  std::printf("  (sink: %lld)\n", static_cast<long long>(sink));
#if defined(NODETR_OBS_NO_FLIGHT)
  bench::note("  [flight recorder compiled out: NODETR_OBS_NO_FLIGHT]");
#endif
  std::printf("  empty loop baseline:      %8.3f ns/op\n", empty_ns);
  std::printf("  disabled ScopedSpan:      %8.3f ns/op\n", span_ns);
  std::printf("  flight_event (dormant):   %8.3f ns/op\n", flight_dormant_ns);
  std::printf("  flight_event (recording): %8.3f ns/op\n", flight_armed_ns);
  flight.clear();

  // --- engine-level ------------------------------------------------------
  nt::Rng rng(11);
  hls::MhsaDesignPoint point;
  point.dim = 64;
  point.height = 6;
  point.width = 6;
  point.heads = 8;
  nn::MhsaConfig mcfg;
  mcfg.dim = point.dim;
  mcfg.heads = point.heads;
  mcfg.height = point.height;
  mcfg.width = point.width;
  nn::MultiHeadSelfAttention mhsa(mcfg, rng);
  mhsa.train(false);
  const auto weights = hls::MhsaWeights::from_module(mhsa);
  std::vector<nt::Tensor> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(rng.rand(nt::Shape{4, point.dim, point.height, point.width}));
  }

  serve::EngineConfig cfg;
  cfg.point = point;
  cfg.backend = serve::Backend::kCpuFloat;
  cfg.workers = 2;
  cfg.queue_capacity = static_cast<std::size_t>(requests) + 1;
  cfg.batcher.max_batch = 8;
  serve::InferenceEngine engine(cfg, weights);
  (void)engine_rps(engine, pool, requests);  // warm-up

  // Overhead of a mode against recorder-off in the same round, in percent.
  auto overhead_pct = [](double off, double on) {
    return on > 0.0 ? 100.0 * (off / on - 1.0) : 100.0;
  };
  std::vector<double> off_rps, on_rps, traced_rps, recorder_pct, tracing_pct;
  for (int round = 0; round < kRounds; ++round) {
    double off = 0.0, on = 0.0;
    for (const bool recorder_on : {round % 2 == 1, round % 2 == 0}) {
      flight.set_enabled(recorder_on);
      (recorder_on ? on : off) = engine_rps(engine, pool, requests);
    }
    flight.set_enabled(true);
    tracer.set_enabled(true);
    const double traced = engine_rps(engine, pool, requests);
    tracer.set_enabled(false);
    flight.clear();
    off_rps.push_back(off);
    on_rps.push_back(on);
    traced_rps.push_back(traced);
    recorder_pct.push_back(overhead_pct(off, on));
    tracing_pct.push_back(overhead_pct(off, traced));
    std::printf("  round %d (%s first): recorder off %6.0f, on %6.0f (%+.1f%%), tracing %6.0f "
                "(%+.1f%%) requests/s\n",
                round + 1, round % 2 == 0 ? "off" : "on", off, on, recorder_pct.back(), traced,
                tracing_pct.back());
  }
  engine.shutdown();
  tracer.set_enabled(tracer_was_enabled);

  const double rps_flight_off = median(off_rps);
  const double rps_flight_on = median(on_rps);
  const double rps_traced = median(traced_rps);
  const double recorder_overhead_pct = median(recorder_pct);
  const double tracing_overhead_pct = median(tracing_pct);
  std::printf("  medians of %d rounds:\n", kRounds);
  std::printf("  engine, recorder off:     %8.0f requests/s\n", rps_flight_off);
  std::printf("  engine, recorder on:      %8.0f requests/s  (%+.1f%%)\n", rps_flight_on,
              recorder_overhead_pct);
  std::printf("  engine, tracing on:       %8.0f requests/s  (%+.1f%%)\n", rps_traced,
              tracing_overhead_pct);
  std::printf("  recorder overhead target: median < 5%%\n");

  bench::JsonReport report("obs");
  report.set("iters", iters);
  report.set("requests", static_cast<std::int64_t>(requests));
  report.set("engine_rounds", static_cast<std::int64_t>(kRounds));
  report.set("empty_ns_per_op", empty_ns);
  report.set("disabled_span_ns_per_op", span_ns);
  report.set("flight_dormant_ns_per_op", flight_dormant_ns);
  report.set("flight_recording_ns_per_op", flight_armed_ns);
  report.set("engine_rps_flight_off", rps_flight_off);
  report.set("engine_rps_flight_on", rps_flight_on);
  report.set("engine_rps_traced", rps_traced);
  report.set("recorder_overhead_pct", recorder_overhead_pct);
  report.set("tracing_overhead_pct", tracing_overhead_pct);
  // Frozen baselines from the machine that authored this bench (Release,
  // containerized x86-64): the dormant check sat at ~2 ns, recording at
  // ~10 ns, and the engine-level recorder cost inside the run-to-run noise.
  report.set("seed_flight_dormant_ns_per_op", 2.0);
  report.set("seed_flight_recording_ns_per_op", 10.0);
  report.set("seed_recorder_overhead_pct", 1.0);
  report.write();

  // The median of the rounds' ratios; a round where recorder-on measured
  // faster reads below zero.
  return recorder_overhead_pct < 5.0 ? 0 : 1;
}
