// Deterministic fault schedules against the accelerator driver and the
// serving engine. The invariant under test everywhere: every accepted
// request resolves — with a value or a typed exception — in bounded time,
// no matter what the schedule injects.
#include "fault_fixture.hpp"

#include <chrono>
#include <future>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "nodetr/rt/accelerator.hpp"

namespace fault = nodetr::fault;
namespace obs = nodetr::obs;
namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace rt = nodetr::rt;
namespace nt = nodetr::tensor;
using nodetr::testing::ServeFaultTest;

namespace {

/// All futures must become ready within `budget`; a hung future fails the
/// test instead of hanging the suite.
template <typename T>
bool all_ready_within(std::vector<std::future<T>>& futures, std::chrono::seconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (auto& f : futures) {
    if (f.wait_until(deadline) != std::future_status::ready) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------- accelerator ----

TEST_F(ServeFaultTest, StalledIpHitsDeadlineThenRecovers) {
  hls::MhsaDesignPoint p = point_;
  p.dtype = hls::DataType::kFloat32;
  rt::DdrMemory ddr;
  rt::MhsaAccelerator accel(std::make_unique<hls::MhsaIpCore>(p, weights()), ddr);
  rt::ExecDeadline deadline;
  deadline.sim_cycles = 123'456;
  accel.set_deadline(deadline);

  fault::Injector::instance().arm("hls.ip.stall", fault::Schedule::once(0));
  const nt::Tensor x = rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width});
  EXPECT_THROW((void)accel.execute(x), fault::DeadlineExceeded);
  // The PS burnt the whole polling budget waiting on a DONE that never rose.
  EXPECT_EQ(accel.last_cycles(), deadline.sim_cycles);

  // The stall was a one-shot: re-issuing the START succeeds bitwise.
  const nt::Tensor y = accel.execute(x);
  EXPECT_EQ(nt::max_abs_diff(y, reference(x)), 0.0f);
}

TEST_F(ServeFaultTest, DdrBitFlipIsDetectedAndRetryConverges) {
  hls::MhsaDesignPoint p = point_;
  p.dtype = hls::DataType::kFloat32;
  rt::DdrMemory ddr;
  rt::MhsaAccelerator accel(std::make_unique<hls::MhsaIpCore>(p, weights()), ddr);

  fault::Injector::instance().arm("rt.ddr.bitflip", fault::Schedule::once(0));
  const nt::Tensor x = rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width});
  EXPECT_THROW((void)accel.execute(x), fault::DdrEccError);
  // The retry restages everything, so the flipped bit cannot leak into the
  // output: the result is bitwise the fault-free one.
  const nt::Tensor y = accel.execute(x);
  EXPECT_EQ(nt::max_abs_diff(y, reference(x)), 0.0f);
}

// --------------------------------------------------------------- engine ----

TEST_F(ServeFaultTest, DmaErrorIsRetriedTransparently) {
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::once(0));
  serve::InferenceEngine engine(config(serve::Backend::kFpgaFloat), weights());
  const nt::Tensor x = rng_.rand(nt::Shape{2, point_.dim, point_.height, point_.width});
  auto future = engine.submit(x);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  const nt::Tensor y = future.get();
  EXPECT_EQ(nt::max_abs_diff(y, reference(x)), 0.0f);
  const auto stats = engine.stats();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST_F(ServeFaultTest, ExhaustedRetriesFailTheFutureWithTypedError) {
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::always());
  serve::EngineConfig cfg = config(serve::Backend::kFpgaFloat);
  cfg.fault.max_retries = 2;
  cfg.breaker.open_after = 0;  // breaker off: the error must surface
  serve::InferenceEngine engine(cfg, weights());
  auto future = engine.submit(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width}));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_THROW((void)future.get(), fault::DmaTransferError);
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.stats().failed, 1u);
}

TEST_F(ServeFaultTest, PersistentDeviceFaultFallsBackToCpu) {
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::always());
  serve::EngineConfig cfg = config(serve::Backend::kFpgaFloat);
  cfg.fault.max_retries = 8;
  cfg.breaker.open_after = 3;
  cfg.breaker.cooldown_us = 10'000'000;  // no half-open probe within this test
  serve::InferenceEngine engine(cfg, weights());
  const nt::Tensor x = rng_.rand(nt::Shape{2, point_.dim, point_.height, point_.width});
  auto f0 = engine.submit(x);
  ASSERT_EQ(f0.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  // The demoted session runs the float datapath in-process: bitwise results.
  EXPECT_EQ(nt::max_abs_diff(f0.get(), reference(x)), 0.0f);
  EXPECT_EQ(engine.stats().fallbacks, 1u);
  EXPECT_EQ(engine.stats().failed, 0u);
  EXPECT_EQ(engine.stats().breaker_opens, 1u);
  EXPECT_EQ(engine.stats().open_breakers, 1u);
  // The breaker stays open (cooldown not elapsed): later requests never
  // touch the dead device.
  auto f1 = engine.submit(x);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(nt::max_abs_diff(f1.get(), reference(x)), 0.0f);
  EXPECT_EQ(engine.stats().fallbacks, 1u);
  EXPECT_EQ(engine.stats().breaker_probes, 0u);
}

TEST_F(ServeFaultTest, BreakerHalfOpenProbeRestoresHealedDevice) {
  // The acceptance scenario for self-healing: a device that faults long
  // enough to open the breaker, then heals. The half-open probe must restore
  // the session's FPGA backend — the demotion is not one-way.
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::always());
  serve::EngineConfig cfg = config(serve::Backend::kFpgaFloat);
  cfg.fault.max_retries = 8;
  cfg.breaker.open_after = 2;
  cfg.breaker.cooldown_us = 1'000;  // 1 ms: the probe fires within the test
  serve::InferenceEngine engine(cfg, weights());
  const nt::Tensor x = rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width});

  auto f0 = engine.submit(x);
  ASSERT_EQ(f0.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(nt::max_abs_diff(f0.get(), reference(x)), 0.0f);  // served by CPU fallback
  auto s = engine.stats();
  EXPECT_EQ(s.breaker_opens, 1u);
  EXPECT_EQ(s.open_breakers, 1u);
  EXPECT_EQ(s.sim_cycles, 0);  // no device execute ever completed

  // The device heals; after the cooldown the next batch is the probe.
  fault::Injector::instance().disarm("rt.dma.error");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto f1 = engine.submit(x);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(nt::max_abs_diff(f1.get(), reference(x)), 0.0f);
  s = engine.stats();
  EXPECT_EQ(s.breaker_probes, 1u);
  EXPECT_EQ(s.breaker_closes, 1u);
  EXPECT_EQ(s.breaker_reopens, 0u);
  EXPECT_EQ(s.open_breakers, 0u);
  EXPECT_GT(s.sim_cycles, 0);  // the probe ran on the real device

  // And the session is genuinely back home: further traffic keeps accruing
  // simulated device cycles.
  const std::int64_t cycles_after_probe = s.sim_cycles;
  auto f2 = engine.submit(x);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(nt::max_abs_diff(f2.get(), reference(x)), 0.0f);
  EXPECT_GT(engine.stats().sim_cycles, cycles_after_probe);
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(ServeFaultTest, FlappingDeviceBacksOffExponentially) {
  // A device that faults every probe: each failed probe re-opens the breaker
  // with a longer cooldown, so traffic converges to mostly-CPU instead of
  // thrashing between backends.
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::always());
  serve::EngineConfig cfg = config(serve::Backend::kFpgaFloat);
  cfg.fault.max_retries = 8;
  cfg.breaker.open_after = 1;
  cfg.breaker.cooldown_us = 500;
  cfg.breaker.cooldown_multiplier = 4.0;
  serve::InferenceEngine engine(cfg, weights());
  const nt::Tensor x = rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width});

  auto f0 = engine.submit(x);
  ASSERT_EQ(f0.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(engine.stats().breaker_opens, 1u);

  // Wait out the first cooldown so the next batch probes (and faults again).
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  auto f1 = engine.submit(x);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(nt::max_abs_diff(f1.get(), reference(x)), 0.0f);  // still served (by CPU)
  const auto s = engine.stats();
  EXPECT_EQ(s.breaker_probes, 1u);
  EXPECT_EQ(s.breaker_reopens, 1u);
  EXPECT_EQ(s.breaker_closes, 0u);
  EXPECT_EQ(s.open_breakers, 1u);
  EXPECT_EQ(s.failed, 0u);
}

TEST_F(ServeFaultTest, WorkerCrashStrandsNoFuture) {
  fault::Injector::instance().arm("serve.worker_crash", fault::Schedule::once(0));
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat), weights());
  std::vector<std::future<nt::Tensor>> futures;
  std::vector<nt::Tensor> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width}));
    futures.push_back(engine.submit(inputs.back()));
  }
  ASSERT_TRUE(all_ready_within(futures, std::chrono::seconds(30)));
  // The crash hit between batches, so every request was untouched and got
  // requeued: all futures carry values, and the worker was respawned.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(nt::max_abs_diff(futures[i].get(), reference(inputs[i])), 0.0f) << "request " << i;
  }
  EXPECT_GE(engine.stats().respawns, 1u);
  EXPECT_EQ(engine.stats().failed, 0u);
}

// A worker whose respawn fails gives up its slot: in a flat engine the
// survivor drains the shared queue, including the requests the dead worker
// held, so every future still carries its value.
TEST_F(ServeFaultTest, FailedRespawnLeavesTheSurvivingWorkerServingEveryRequest) {
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat, /*workers=*/2), weights());
  auto& lost = obs::Registry::instance().counter("serve.worker_lost");
  const std::int64_t lost_before = lost.value();
  // Armed after construction: bring-up builds its sessions through the same
  // site. The first batch either worker forms crashes it.
  auto& inj = fault::Injector::instance();
  inj.arm("serve.respawn", fault::Schedule::always());
  inj.arm("serve.worker_crash", fault::Schedule::once(0));
  std::vector<std::future<nt::Tensor>> futures;
  std::vector<nt::Tensor> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width}));
    futures.push_back(engine.submit(inputs.back()));
  }
  ASSERT_TRUE(all_ready_within(futures, std::chrono::seconds(30)));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(nt::max_abs_diff(futures[i].get(), reference(inputs[i])), 0.0f) << "request " << i;
  }
  EXPECT_EQ(inj.fires("serve.respawn"), 1u);
  EXPECT_EQ(lost.value() - lost_before, 1);
  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.respawns, 0u);
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.failed, 0u);
}

// When the respawn of a flat engine's last worker fails, nothing is left to
// drain the shared queue: the queued request fails with EngineStoppedError
// and later submits throw it.
TEST_F(ServeFaultTest, FailedRespawnOfTheLastFlatWorkerStopsTheEngine) {
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat), weights());
  auto& inj = fault::Injector::instance();
  inj.arm("serve.respawn", fault::Schedule::always());
  inj.arm("serve.worker_crash", fault::Schedule::once(0));
  // The one worker crashes at this request's batch, requeues it, and then
  // fails to respawn.
  auto queued = engine.submit(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width}));
  ASSERT_EQ(queued.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_THROW((void)queued.get(), serve::EngineStoppedError);
  EXPECT_EQ(inj.fires("serve.respawn"), 1u);
  EXPECT_THROW(
      (void)engine.submit(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width})),
      serve::EngineStoppedError);
  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
}

// In a cluster nobody else drains the lost board's queue: the requests queued
// there fail with EngineStoppedError, the board is marked lost, and the
// router sends everything after it to the surviving board.
TEST_F(ServeFaultTest, FailedRespawnMarksTheClusterBoardLostForGood) {
  serve::EngineConfig c = config(serve::Backend::kCpuFloat);
  c.devices = {{.name = "lost_a", .backend = serve::Backend::kCpuFloat},
               {.name = "lost_b", .backend = serve::Backend::kCpuFloat}};
  serve::InferenceEngine engine(c, weights());
  auto& routed_a = obs::Registry::instance().counter("serve.device.lost_a.routed");
  auto& inj = fault::Injector::instance();
  inj.arm("serve.respawn", fault::Schedule::always());
  inj.arm("serve.worker_crash", fault::Schedule::once(0));
  // Equal boards tie-break to the lowest index, so the one request goes to
  // lost_a, whose worker crashes at that batch and requeues it on its own
  // device queue before the respawn fails.
  auto first = engine.submit(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width}));
  ASSERT_EQ(first.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_THROW((void)first.get(), serve::EngineStoppedError);
  {
    const serve::EngineStats s = engine.stats();
    EXPECT_TRUE(s.device_stats.at("lost_a").lost);
    EXPECT_FALSE(s.device_stats.at("lost_b").lost);
    EXPECT_EQ(s.device_stats.at("lost_a").pending_rows, 0);
    EXPECT_EQ(s.failed, 1u);
  }
  const std::int64_t routed_a_after_loss = routed_a.value();
  std::vector<std::future<nt::Tensor>> futures;
  std::vector<nt::Tensor> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(rng_.rand(nt::Shape{2, point_.dim, point_.height, point_.width}));
    futures.push_back(engine.submit(inputs.back()));
  }
  ASSERT_TRUE(all_ready_within(futures, std::chrono::seconds(30)));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(nt::max_abs_diff(futures[i].get(), reference(inputs[i])), 0.0f) << "request " << i;
  }
  EXPECT_EQ(routed_a.value(), routed_a_after_loss);
  const serve::EngineStats s = engine.stats();
  EXPECT_EQ(s.device_stats.at("lost_a").rows, 0u);
  EXPECT_EQ(s.device_stats.at("lost_b").rows, 12u);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.respawns, 0u);
}

TEST_F(ServeFaultTest, BatchAllocationFailureRequeuesEveryRequest) {
  fault::Injector::instance().arm("serve.alloc", fault::Schedule::once(0));
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat), weights());
  std::vector<std::future<nt::Tensor>> futures;
  std::vector<nt::Tensor> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(rng_.rand(nt::Shape{2, point_.dim, point_.height, point_.width}));
    futures.push_back(engine.submit(inputs[i]));
  }
  ASSERT_TRUE(all_ready_within(futures, std::chrono::seconds(30)));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(nt::max_abs_diff(futures[i].get(), reference(inputs[i])), 0.0f) << "request " << i;
  }
  EXPECT_GE(engine.stats().respawns, 1u);
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(ServeFaultTest, FixedOverflowEventRetriesOnTheFixedBackend) {
  fault::Injector::instance().arm("hls.ip.overflow", fault::Schedule::once(0));
  serve::InferenceEngine engine(config(serve::Backend::kFpgaFixed), weights());
  const nt::Tensor x = rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width});
  auto future = engine.submit(x);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_NO_THROW((void)future.get());
  EXPECT_GE(engine.stats().retries, 1u);
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST_F(ServeFaultTest, MixedProbabilisticScheduleResolvesEverythingBounded) {
  // The storm: every device-path site misbehaving at once, probabilistically,
  // on a deterministic seed. With retries + fallback armed, every future must
  // resolve with a value, bitwise equal to the fault-free reference.
  // References are computed BEFORE arming — the reference path runs the same
  // instrumented IP model and must stay fault-free.
  std::vector<nt::Tensor> inputs, expected;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(rng_.rand(nt::Shape{1 + (i % 3), point_.dim, point_.height, point_.width}));
    expected.push_back(reference(inputs[i]));
  }
  auto& inj = fault::Injector::instance();
  inj.arm("rt.dma.error", fault::Schedule::with_probability(0.10));
  inj.arm("rt.ddr.bitflip", fault::Schedule::with_probability(0.05));
  inj.arm("rt.axi.nack", fault::Schedule::with_probability(0.02));
  inj.arm("hls.ip.stall", fault::Schedule::with_probability(0.05));
  serve::EngineConfig cfg = config(serve::Backend::kFpgaFloat, /*workers=*/2);
  cfg.fault.max_retries = 6;
  cfg.breaker.open_after = 16;
  cfg.fault.deadline.sim_cycles = 1'000'000;
  serve::InferenceEngine engine(cfg, weights());
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(engine.submit(inputs[i]));
  ASSERT_TRUE(all_ready_within(futures, std::chrono::seconds(60)))
      << "a future failed to resolve under the fault storm (bounded completion violated)";
  for (std::size_t i = 0; i < futures.size(); ++i) {
    nt::Tensor y;
    try {
      y = futures[i].get();
    } catch (const fault::FaultError&) {
      // Acceptable only as a typed fault after exhausted retries.
      continue;
    }
    EXPECT_EQ(nt::max_abs_diff(y, expected[i]), 0.0f) << "request " << i;
  }
  engine.shutdown();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed + stats.failed, stats.submitted);
}

TEST_F(ServeFaultTest, EngineCountersAreSumsOverThePerBoardLedger) {
  // Every retry and breaker transition is recorded once, on its board; the
  // engine-wide fields and the per-backend device counters are sums of it.
  serve::EngineConfig cfg = config(serve::Backend::kFpgaFloat, /*workers=*/2);
  cfg.fault.max_retries = 8;
  cfg.fault.backoff_us = 0;
  cfg.breaker.open_after = 2;
  cfg.breaker.cooldown_us = 200;
  // Each board's breaker transitions also land in its serve.device.<name>.*
  // registry counters. The registry is process-wide, so compare deltas.
  const char* kTransitions[] = {"breaker_opens", "breaker_probes", "breaker_reopens",
                                "breaker_closes"};
  const auto board_counter = [](const std::string& board, const char* transition) -> auto& {
    return obs::Registry::instance().counter("serve.device." + board + "." + transition);
  };
  std::map<std::string, std::int64_t> before;
  for (const std::string board : {"dev0", "dev1"}) {
    for (const char* t : kTransitions) before[board + t] = board_counter(board, t).value();
  }
  serve::InferenceEngine engine(cfg, weights());
  // The input fixes the outcome, whatever the host's timing: one request is
  // in flight at a time, and the first two DMA transfers fail. The first
  // request's device attempt faults, is retried, faults again and opens its
  // board's breaker (retries 1, opens 1); every later transfer succeeds, so
  // the other board, or this one's half-open probe, records device STARTs.
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::at_ops({0, 1}));
  for (int i = 0; i < 24; ++i) {
    auto future =
        engine.submit(rng_.rand(nt::Shape{1 + i % 2, point_.dim, point_.height, point_.width}));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  }
  engine.shutdown();
  const auto s = engine.stats();
  ASSERT_EQ(s.device_stats.size(), 2u);
  serve::DeviceStats sum;
  for (const auto& [name, ds] : s.device_stats) {
    EXPECT_EQ(ds.backend, "fpga_float") << name;
    sum.batches += ds.batches;
    sum.rows += ds.rows;
    sum.retries += ds.retries;
    sum.breaker_opens += ds.breaker_opens;
    sum.breaker_probes += ds.breaker_probes;
    sum.breaker_reopens += ds.breaker_reopens;
    sum.breaker_closes += ds.breaker_closes;
    sum.counters += ds.counters;
  }
  EXPECT_GE(s.retries, 1u);
  EXPECT_GE(s.breaker_opens, 1u);
  EXPECT_EQ(s.retries, sum.retries);
  EXPECT_EQ(s.breaker_opens, sum.breaker_opens);
  EXPECT_EQ(s.breaker_probes, sum.breaker_probes);
  EXPECT_EQ(s.breaker_reopens, sum.breaker_reopens);
  EXPECT_EQ(s.breaker_closes, sum.breaker_closes);
  EXPECT_EQ(s.fallbacks, s.breaker_opens + s.breaker_reopens);
  EXPECT_EQ(s.batches, sum.batches);
  EXPECT_EQ(s.rows, sum.rows);
  ASSERT_EQ(s.devices.size(), 1u);
  const rt::DeviceCounters& agg = s.devices.at("fpga_float");
  EXPECT_GT(agg.starts, 0);
  EXPECT_EQ(agg.starts, sum.counters.starts);
  EXPECT_EQ(agg.stalls, sum.counters.stalls);
  EXPECT_EQ(agg.dma_bytes_in, sum.counters.dma_bytes_in);
  EXPECT_EQ(agg.dma_bytes_out, sum.counters.dma_bytes_out);
  EXPECT_EQ(agg.weight_bytes, sum.counters.weight_bytes);
  EXPECT_EQ(agg.weight_bytes_float, sum.counters.weight_bytes_float);
  EXPECT_EQ(agg.weight_bytes_saved, sum.counters.weight_bytes_saved);
  EXPECT_EQ(agg.dma_cycles, sum.counters.dma_cycles);
  EXPECT_EQ(agg.compute_cycles, sum.counters.compute_cycles);
  EXPECT_EQ(agg.stall_cycles, sum.counters.stall_cycles);
  for (const auto& [name, ds] : s.device_stats) {
    const std::uint64_t ledger[] = {ds.breaker_opens, ds.breaker_probes, ds.breaker_reopens,
                                    ds.breaker_closes};
    for (std::size_t i = 0; i < std::size(kTransitions); ++i) {
      const char* t = kTransitions[i];
      EXPECT_EQ(board_counter(name, t).value() - before[name + t],
                static_cast<std::int64_t>(ledger[i]))
          << name << " " << t;
    }
  }
}

TEST_F(ServeFaultTest, IsolatedRerunCountersReachTheBoardLedger) {
  // Two co-batched requests whose batch faults with no retry left are re-run
  // slice by slice. When that isolation is the worker's last batch, the
  // re-runs' STARTs and DMA bytes must still reach the board's ledger.
  serve::EngineConfig cfg = config(serve::Backend::kFpgaFloat);
  cfg.batcher.max_batch = 2;
  cfg.batcher.max_wait_us = 2'000'000;  // the two requests form one batch
  cfg.fault.max_retries = 0;
  cfg.breaker.open_after = 100;
  auto& isolations = obs::Registry::instance().counter("serve.isolation_runs");
  const std::int64_t isolations_before = isolations.value();
  serve::InferenceEngine engine(cfg, weights());
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::at_ops({0}));
  std::vector<nt::Tensor> xs;
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < 2; ++i) {
    xs.push_back(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width}));
    futures.push_back(engine.submit(xs.back()));
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_EQ(nt::max_abs_diff(futures[i].get(), reference(xs[i])), 0.0f);
  }
  engine.shutdown();
  EXPECT_EQ(isolations.value() - isolations_before, 1);
  const rt::DeviceCounters c = engine.stats().device_stats.at("dev0").counters;
  EXPECT_EQ(c.starts, 2);
  EXPECT_EQ(c.dma_bytes_in, 9472);
}

TEST_F(ServeFaultTest, ShutdownDrainsUnderFaults) {
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::with_probability(0.2));
  std::vector<std::future<nt::Tensor>> futures;
  {
    serve::InferenceEngine engine(config(serve::Backend::kFpgaFloat, /*workers=*/2), weights());
    for (int i = 0; i < 8; ++i) {
      futures.push_back(
          engine.submit(rng_.rand(nt::Shape{1, point_.dim, point_.height, point_.width})));
    }
    engine.shutdown();  // must drain every accepted request, faults included
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "shutdown returned with an unresolved future";
    // Each future holds a value or, after exhausted retries, a typed fault —
    // never anything untyped, and never nothing.
    try {
      (void)f.get();
    } catch (const fault::FaultError&) {
    }
  }
}
