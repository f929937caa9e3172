// Soak: open-loop mixed traffic (priorities, TTLs, oversized requests)
// against an engine under a probabilistic fault storm, for
// NODETR_SOAK_SECONDS (default 2; the nightly CI job runs 60). Asserts the
// two properties that only show up over time: zero hung futures and bounded
// memory growth. Seeded via NODETR_FAULT_SEED for replay.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <thread>

#include "nodetr/fault/fault.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace serve = nodetr::serve;
namespace fault = nodetr::fault;
namespace hls = nodetr::hls;
namespace rt = nodetr::rt;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;
using Clock = std::chrono::steady_clock;

namespace {

long max_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::strtoll(v, nullptr, 0) : fallback;
}

}  // namespace

TEST(Soak, FaultStormNeverHangsAFutureAndMemoryStaysBounded) {
  const std::int64_t seconds = env_int("NODETR_SOAK_SECONDS", 2);
  auto& inj = fault::Injector::instance();
  inj.reset();
  const auto seed = static_cast<std::uint64_t>(env_int("NODETR_FAULT_SEED", 0x50a7'5eed));
  inj.seed(seed);
  inj.arm("rt.dma.error", fault::Schedule::with_probability(0.05));
  inj.arm("rt.ddr.bitflip", fault::Schedule::with_probability(0.02));
  inj.arm("hls.ip.stall", fault::Schedule::with_probability(0.02));
  inj.arm("serve.alloc", fault::Schedule::with_probability(0.005));
  inj.arm("serve.worker_crash", fault::Schedule::with_probability(0.002));
  inj.arm("serve.overload.expire", fault::Schedule::with_probability(0.01));

  nt::Rng rng{7};
  nn::MhsaConfig mc;
  mc.dim = 16;
  mc.heads = 2;
  mc.height = 4;
  mc.width = 4;
  nn::MultiHeadSelfAttention mhsa(mc, rng);
  mhsa.train(false);

  serve::EngineConfig cfg;
  cfg.point.dim = mc.dim;
  cfg.point.height = mc.height;
  cfg.point.width = mc.width;
  cfg.point.heads = mc.heads;
  cfg.point.scheme = fx::scheme_32_24();
  cfg.backend = serve::Backend::kFpgaFloat;
  cfg.workers = 2;
  cfg.queue_capacity = 128;
  cfg.policy = serve::BackpressurePolicy::kShedOldest;
  cfg.batcher.max_batch = 8;
  cfg.batcher.adaptive = true;
  cfg.batcher.min_wait_us = 0;
  cfg.batcher.max_wait_us = 200;
  cfg.fault.max_retries = 4;
  cfg.fault.backoff_us = 10;
  cfg.fault.max_backoff_us = 100;
  cfg.fault.deadline.sim_cycles = 1'000'000;
  cfg.admission.enabled = true;
  cfg.admission.target_wait_us = 5'000;
  cfg.admission.interval_us = 50'000;
  cfg.breaker.open_after = 8;
  cfg.breaker.cooldown_us = 10'000;
  serve::InferenceEngine engine(cfg, hls::MhsaWeights::from_module(mhsa));

  // Warm up the allocator/thread pools before the baseline RSS reading so
  // steady-state growth, not first-touch, is what the bound measures.
  for (int i = 0; i < 8; ++i) {
    try {
      (void)engine.submit(rng.rand(nt::Shape{2, mc.dim, mc.height, mc.width})).get();
    } catch (const std::runtime_error&) {
      // The storm is already armed; warmup requests may resolve with a
      // typed error, which is fine — they only exist to touch memory.
    }
  }
  const long rss_before_kb = max_rss_kb();

  struct Pending {
    std::future<nt::Tensor> future;
    bool had_deadline;
  };
  std::vector<Pending> pending;
  std::uint64_t accepted = 0, refused = 0, values = 0, typed_errors = 0;
  const auto t_end = Clock::now() + std::chrono::seconds(seconds);
  std::uint64_t i = 0;
  while (Clock::now() < t_end) {
    const nt::index_t rows = 1 + static_cast<nt::index_t>(i % 12);
    serve::SubmitOptions opts;
    opts.priority = static_cast<serve::Priority>(i % 3);
    const bool with_ttl = (i % 4) == 0;
    if (with_ttl) opts.ttl_us = 1'000 + static_cast<std::int64_t>(i % 7) * 10'000;
    try {
      pending.push_back(
          {engine.submit(rng.rand(nt::Shape{rows, mc.dim, mc.height, mc.width}), opts),
           with_ttl});
      ++accepted;
    } catch (const serve::RequestShedError&) {
      ++refused;
    } catch (const serve::RequestExpired&) {
      ++refused;
    }
    ++i;
    // Reap settled futures as we go so `pending` (and the inputs the engine
    // holds for them) cannot grow without bound over a long soak.
    if (pending.size() >= 64) {
      for (auto& p : pending) {
        try {
          (void)p.future.get();
          ++values;
        } catch (const fault::FaultError&) {
          ++typed_errors;  // exhausted retries under the storm
        } catch (const serve::RequestExpired&) {
          ++typed_errors;
        } catch (const serve::RequestShedError&) {
          ++typed_errors;
        }
        // Anything else (an untyped exception) propagates and fails the test.
      }
      pending.clear();
    }
  }
  engine.shutdown();
  const auto resolve_deadline = Clock::now() + std::chrono::seconds(30);
  for (auto& p : pending) {
    ASSERT_EQ(p.future.wait_until(resolve_deadline), std::future_status::ready)
        << "hung future after shutdown (seed 0x" << std::hex << seed << ")";
    try {
      (void)p.future.get();
      ++values;
    } catch (const fault::FaultError&) {
      ++typed_errors;
    } catch (const serve::RequestExpired&) {
      ++typed_errors;
    } catch (const serve::RequestShedError&) {
      ++typed_errors;
    }
  }
  const auto stats = engine.stats();
  // Every accepted request resolved exactly once, value or typed error.
  EXPECT_EQ(values + typed_errors, accepted);
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
  EXPECT_GT(values, 0u) << "storm drowned all traffic; nothing completed";

  // Bounded memory: steady-state RSS growth over the whole soak stays under
  // a generous fixed bound (a leak of one input tensor per request would
  // blow far past this).
  const long growth_kb = max_rss_kb() - rss_before_kb;
  EXPECT_LT(growth_kb, 256 * 1024)
      << "RSS grew " << growth_kb << " KiB over " << seconds << "s soak";

  inj.reset();
  std::cerr << "[soak] " << seconds << "s: accepted=" << accepted << " refused=" << refused
            << " values=" << values << " typed_errors=" << typed_errors
            << " sheds=" << stats.shed << " expired=" << stats.expired
            << " breaker_opens=" << stats.breaker_opens << " closes=" << stats.breaker_closes
            << " respawns=" << stats.respawns << " rss_growth_kb=" << growth_kb << std::endl;
}

// Multi-device soak: a routed 4-board fleet runs three phases —
//   A: clean traffic (baseline goodput);
//   B: one board is "killed" mid-soak (its scoped DMA site fault-storms on
//      every transfer), so its breaker opens and the router reroutes;
//   C: the board is restored (storm disarmed); the next half-open probe
//      heals it and goodput recovers.
// Asserts zero hung futures across all phases, the kill/heal breaker cycle
// on exactly the stormed board, recovery of goodput after the restore, and
// per-board DeviceCounters consistency: each board's counters are drained
// exactly once (the per-backend aggregate equals the per-board sum) with no
// negative fields.
TEST(Soak, ClusterKillAndRestoreDeviceRecoversGoodputAndCounters) {
  const std::int64_t seconds = env_int("NODETR_SOAK_SECONDS", 2);
  const std::int64_t phase_ms = std::max<std::int64_t>(seconds * 1000 / 3, 300);
  auto& inj = fault::Injector::instance();
  inj.reset();
  inj.seed(static_cast<std::uint64_t>(env_int("NODETR_FAULT_SEED", 0x50a7'5eed)));

  nt::Rng rng{11};
  nn::MhsaConfig mc;
  mc.dim = 16;
  mc.heads = 2;
  mc.height = 4;
  mc.width = 4;
  nn::MultiHeadSelfAttention mhsa(mc, rng);
  mhsa.train(false);

  serve::EngineConfig cfg;
  cfg.point.dim = mc.dim;
  cfg.point.height = mc.height;
  cfg.point.width = mc.width;
  cfg.point.heads = mc.heads;
  cfg.point.scheme = fx::scheme_32_24();
  cfg.queue_capacity = 128;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_us = 200;
  cfg.fault.max_retries = 4;
  cfg.fault.backoff_us = 10;
  cfg.fault.max_backoff_us = 100;
  // Trip fast and probe often, so the kill is detected within a batch or two
  // and the restore heals within phase C even after repeated reopens.
  cfg.breaker.open_after = 2;
  cfg.breaker.cooldown_us = 5'000;
  cfg.breaker.max_cooldown_us = 50'000;
  cfg.devices.resize(4);
  for (std::size_t i = 0; i < cfg.devices.size(); ++i) {
    cfg.devices[i].name = "soak" + std::to_string(i);
    cfg.devices[i].backend = serve::Backend::kFpgaFloat;
  }
  serve::InferenceEngine engine(cfg, hls::MhsaWeights::from_module(mhsa));

  std::uint64_t accepted = 0, values = 0, typed_errors = 0;
  std::uint64_t i = 0;
  std::vector<std::future<nt::Tensor>> pending;
  const auto reap = [&] {
    for (auto& f : pending) {
      try {
        (void)f.get();
        ++values;
      } catch (const fault::FaultError&) {
        ++typed_errors;
      } catch (const serve::RequestExpired&) {
        ++typed_errors;
      } catch (const serve::RequestShedError&) {
        ++typed_errors;
      }
    }
    pending.clear();
  };
  const auto drive_for = [&](std::int64_t ms) {
    const std::uint64_t before = engine.stats().completed;
    const auto until = Clock::now() + std::chrono::milliseconds(ms);
    while (Clock::now() < until) {
      const nt::index_t rows = 1 + static_cast<nt::index_t>(i % 10);
      pending.push_back(engine.submit(rng.rand(nt::Shape{rows, mc.dim, mc.height, mc.width})));
      ++accepted;
      ++i;
      if (pending.size() >= 48) reap();
    }
    reap();
    return engine.stats().completed - before;
  };

  // Phase A: healthy fleet baseline.
  const std::uint64_t phase_a = drive_for(phase_ms);
  // Phase B: kill soak2 — every DMA transfer on that board faults.
  inj.arm("rt.dma.error.soak2", fault::Schedule::always());
  const std::uint64_t phase_b = drive_for(phase_ms);
  const serve::EngineStats mid = engine.stats();
  EXPECT_GE(mid.device_stats.at("soak2").breaker_opens, 1u)
      << "killed board's breaker never opened";
  EXPECT_EQ(mid.device_stats.at("soak0").breaker_opens, 0u);
  // Phase C: restore the board; drive until its breaker closes (a half-open
  // probe on the clean device), bounded by a generous deadline.
  inj.disarm("rt.dma.error.soak2");
  const std::uint64_t phase_c = drive_for(phase_ms);
  const auto heal_deadline = Clock::now() + std::chrono::seconds(20);
  while (engine.stats().device_stats.at("soak2").breaker_closes < 1 &&
         Clock::now() < heal_deadline) {
    (void)drive_for(50);
  }
  engine.shutdown();
  reap();

  const serve::EngineStats fin = engine.stats();
  // Every accepted request resolved exactly once, value or typed error.
  EXPECT_EQ(values + typed_errors, accepted);
  EXPECT_EQ(fin.completed + fin.failed, fin.submitted);
  // The kill was survived and the restore healed the board.
  EXPECT_GE(fin.device_stats.at("soak2").breaker_closes, 1u)
      << "restored board never healed (no successful half-open probe)";
  EXPECT_FALSE(fin.device_stats.at("soak2").breaker_open);
  // Goodput survived the storm and recovered after the restore. The host is
  // shared, so the bars are deliberately loose — they catch collapse (a
  // stalled router, a dead fleet), not percentage regressions.
  EXPECT_GT(phase_b, phase_a / 4) << "goodput collapsed during the device kill";
  EXPECT_GT(phase_c, phase_a / 2) << "goodput did not recover after the restore";
  // Per-board counters: drained exactly once into both views — the
  // per-backend aggregate must equal the per-board sum, all fields >= 0.
  rt::DeviceCounters sum;
  for (const auto& [name, ds] : fin.device_stats) {
    EXPECT_GE(ds.counters.starts, 0) << name;
    EXPECT_GE(ds.counters.stalls, 0) << name;
    EXPECT_GE(ds.counters.dma_bytes_in, 0) << name;
    EXPECT_GE(ds.counters.dma_bytes_out, 0) << name;
    EXPECT_GE(ds.counters.weight_bytes, 0) << name;
    EXPECT_GE(ds.counters.weight_bytes_saved, 0) << name;
    EXPECT_GE(ds.counters.dma_cycles, 0) << name;
    EXPECT_GE(ds.counters.compute_cycles, 0) << name;
    EXPECT_GE(ds.counters.stall_cycles, 0) << name;
    sum += ds.counters;
  }
  ASSERT_EQ(fin.devices.count("fpga_float"), 1u);
  const rt::DeviceCounters& agg = fin.devices.at("fpga_float");
  EXPECT_EQ(agg.starts, sum.starts);
  EXPECT_EQ(agg.stalls, sum.stalls);
  EXPECT_EQ(agg.dma_bytes_in, sum.dma_bytes_in);
  EXPECT_EQ(agg.dma_bytes_out, sum.dma_bytes_out);
  EXPECT_EQ(agg.weight_bytes, sum.weight_bytes);
  EXPECT_EQ(agg.weight_bytes_saved, sum.weight_bytes_saved);
  EXPECT_EQ(agg.dma_cycles, sum.dma_cycles);
  EXPECT_EQ(agg.compute_cycles, sum.compute_cycles);
  EXPECT_EQ(agg.stall_cycles, sum.stall_cycles);

  inj.reset();
  std::cerr << "[soak.cluster] phases A/B/C completed=" << phase_a << "/" << phase_b << "/"
            << phase_c << " breaker_opens(soak2)=" << fin.device_stats.at("soak2").breaker_opens
            << " closes=" << fin.device_stats.at("soak2").breaker_closes
            << " respawns=" << fin.respawns << std::endl;
}

// Swap-under-storm soak: a 3-board fleet serves traffic while one board's
// DMA path fault-storms the whole time AND the model is hot-swapped over and
// over (alternating between two weight versions). Asserts the hot-swap
// guarantees that only show up under sustained churn: every swap reaches a
// terminal state (all commit — no rollback trigger is armed), zero failed
// futures, every response bitwise attributable to exactly one version, and
// after the last commit the whole fleet converges on the final version.
TEST(Soak, SwapStormOnDegradedFleetNeverFailsAFutureAndConverges) {
  const std::int64_t seconds = env_int("NODETR_SOAK_SECONDS", 2);
  const std::int64_t swaps = std::max<std::int64_t>(50, seconds * 8);
  auto& inj = fault::Injector::instance();
  inj.reset();
  const auto seed = static_cast<std::uint64_t>(env_int("NODETR_FAULT_SEED", 0x50a7'5eed));
  inj.seed(seed);

  nt::Rng rng{23};
  nn::MhsaConfig mc;
  mc.dim = 16;
  mc.heads = 2;
  mc.height = 4;
  mc.width = 4;
  nn::MultiHeadSelfAttention mhsa(mc, rng);
  mhsa.train(false);
  const hls::MhsaWeights weights_a = hls::MhsaWeights::from_module(mhsa);
  hls::MhsaWeights weights_b = weights_a;
  for (nt::Tensor* t : {&weights_b.wq, &weights_b.wk, &weights_b.wv}) {
    float* p = t->data();
    for (nt::index_t k = 0; k < t->numel(); ++k) p[k] += 0.05f;
  }

  serve::EngineConfig cfg;
  cfg.point.dim = mc.dim;
  cfg.point.height = mc.height;
  cfg.point.width = mc.width;
  cfg.point.heads = mc.heads;
  cfg.point.scheme = fx::scheme_32_24();
  cfg.queue_capacity = 128;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_us = 100;
  cfg.fault.max_retries = 6;
  cfg.fault.backoff_us = 10;
  cfg.fault.max_backoff_us = 100;
  cfg.breaker.open_after = 2;       // demote the stormed board fast; its CPU
  cfg.breaker.cooldown_us = 2'000;  // fallback is bitwise for float backends
  cfg.devices.resize(3);
  for (std::size_t d = 0; d < cfg.devices.size(); ++d) {
    cfg.devices[d].name = "swap" + std::to_string(d);
    cfg.devices[d].backend = serve::Backend::kFpgaFloat;
  }
  // Every whole-request batch canaries; one shadow-scored batch promotes.
  cfg.hot_swap.canary_fraction = 1.0;
  cfg.hot_swap.min_canary_batches = 1;
  cfg.hot_swap.max_divergence = 0.0;  // quality gates off: churn is the test
  cfg.hot_swap.rollback_fault_burst = 0;
  cfg.hot_swap.rollback_slo_breaches = 0;
  cfg.hot_swap.swap_timeout_us = 60'000'000;
  serve::InferenceEngine engine(cfg, weights_a);

  // Board swap1 is degraded for the entire soak: most DMA transfers on it
  // fault, so the storm overlaps canary staging, commits, and the breaker's
  // demote/probe cycle on that board (open_after=2 means its retries land on
  // the bitwise-identical CPU fallback rather than exhausting).
  inj.arm("rt.dma.error.swap1", fault::Schedule::with_probability(0.85));

  // Bitwise references for both versions (the float IP datapath the boards
  // and the CPU fallback share).
  hls::MhsaDesignPoint ref_point = cfg.point;
  ref_point.dtype = hls::DataType::kFloat32;
  const nt::Tensor x = rng.rand(nt::Shape{1, mc.dim, mc.height, mc.width});
  const nt::Tensor ref_a = hls::MhsaIpCore(ref_point, weights_a).run(x);
  const nt::Tensor ref_b = hls::MhsaIpCore(ref_point, weights_b).run(x);

  // Bursts of concurrent requests, so the cost-model router spreads load
  // across all three boards (sequential submit→get traffic would park on the
  // least-loaded board and never touch the degraded one).
  std::uint64_t responses = 0, hybrid = 0;
  const auto drive_burst = [&] {
    std::vector<std::future<nt::Tensor>> burst;
    for (int b = 0; b < 9; ++b) burst.push_back(engine.submit(x));
    for (auto& f : burst) {
      const nt::Tensor y = f.get();  // throw = failed future
      ++responses;
      const bool is_a = nt::allclose(y, ref_a, 0.0f, 0.0f);
      const bool is_b = nt::allclose(y, ref_b, 0.0f, 0.0f);
      if (!is_a && !is_b) ++hybrid;
    }
  };
  for (std::int64_t s = 0; s < swaps; ++s) {
    const auto id = engine.registry().publish(s % 2 == 0 ? weights_b : weights_a,
                                              "soak swap " + std::to_string(s));
    engine.begin_swap(id);
    const auto conclude = Clock::now() + std::chrono::seconds(30);
    while (engine.swap_stats().canary_in_flight) {
      ASSERT_LT(Clock::now(), conclude)
          << "swap " << s << " never concluded (seed 0x" << std::hex << seed << ")";
      drive_burst();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  inj.disarm("rt.dma.error.swap1");

  // Convergence: after the last commit every board serves the final version
  // bitwise (bursts again, so all three boards get probed).
  const nt::Tensor& final_ref = (swaps - 1) % 2 == 0 ? ref_b : ref_a;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::future<nt::Tensor>> burst;
    for (int b = 0; b < 9; ++b) burst.push_back(engine.submit(x));
    for (auto& f : burst) {
      EXPECT_TRUE(nt::allclose(f.get(), final_ref, 0.0f, 0.0f))
          << "fleet did not converge on the final version (round " << round << ")";
    }
  }
  engine.shutdown();

  const serve::EngineStats fin = engine.stats();
  const serve::SwapStats swap = fin.swap;
  EXPECT_EQ(swap.swaps_begun, static_cast<std::uint64_t>(swaps));
  EXPECT_EQ(swap.swaps_committed + swap.swaps_rolled_back,
            static_cast<std::uint64_t>(swaps))
      << "a swap leaked without reaching a terminal state";
  EXPECT_EQ(swap.swaps_committed, static_cast<std::uint64_t>(swaps));
  EXPECT_EQ(hybrid, 0u) << "responses not bitwise attributable to one version";
  EXPECT_EQ(fin.failed, 0u) << "futures failed under swap storm (seed 0x" << std::hex
                            << seed << ")";
  EXPECT_EQ(fin.completed, fin.submitted);
  EXPECT_EQ(engine.active_version(), engine.registry().active());

  inj.reset();
  std::cerr << "[soak.swap] swaps=" << swaps << " responses=" << responses
            << " restages=" << swap.restages << " stage_failures=" << swap.stage_failures
            << " breaker_opens(swap1)=" << fin.device_stats.at("swap1").breaker_opens
            << " stage_p99_us=" << swap.stage_p99_us << std::endl;
}
