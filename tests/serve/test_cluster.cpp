// Differential cluster harness: an N-device routed fleet must be numerically
// indistinguishable from a single device served sequentially —
//   - all-float fleets (CPU datapath and simulated-FPGA boards): bitwise
//     equal to sequential single-request execution, across request splits,
//     merges, and carries;
//   - fixed-point fleets: bitwise equal to sequential fixed execution, and
//     within the scheme_32_24 quantization tolerance of the float reference;
//   - with one board fault-stormed: every future still resolves with the
//     bitwise-correct value (retry -> breaker -> CPU fallback is bitwise for
//     float), the stormed board's breaker opens, and traffic reroutes.
// Plus the property sweeps: a 1000-seed pure routing/packing sweep (no rows
// dropped or double-assigned, FIFO preserved per device) and a live-engine
// sweep over (devices, backends, batch, priorities, fault schedules)
// asserting every future resolves exactly once and per-device execution
// respects submission order.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <random>

#include "nodetr/fault/fault.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace rt = nodetr::rt;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;
namespace obs = nodetr::obs;
namespace fault = nodetr::fault;
using nt::index_t;

namespace {

struct ClusterFixture {
  nt::Rng rng{42};
  nn::MhsaConfig cfg;
  std::unique_ptr<nn::MultiHeadSelfAttention> mhsa;
  hls::MhsaDesignPoint point;

  ClusterFixture() {
    fault::Injector::instance().reset();
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.height = 4;
    cfg.width = 4;
    mhsa = std::make_unique<nn::MultiHeadSelfAttention>(cfg, rng);
    mhsa->train(false);
    point.dim = cfg.dim;
    point.height = cfg.height;
    point.width = cfg.width;
    point.heads = cfg.heads;
    point.scheme = fx::scheme_32_24();
  }

  ~ClusterFixture() { fault::Injector::instance().reset(); }

  [[nodiscard]] hls::MhsaWeights weights() { return hls::MhsaWeights::from_module(*mhsa); }

  [[nodiscard]] std::vector<nt::Tensor> make_requests(const std::vector<index_t>& rows) {
    std::vector<nt::Tensor> xs;
    xs.reserve(rows.size());
    for (index_t r : rows) {
      xs.push_back(rng.rand(nt::Shape{r, cfg.dim, cfg.height, cfg.width}));
    }
    return xs;
  }

  /// Sequential single-request reference through one private accelerator —
  /// the "single device, no router" baseline every fleet is diffed against.
  [[nodiscard]] std::vector<nt::Tensor> sequential_execute(hls::DataType dtype,
                                                           const std::vector<nt::Tensor>& xs) {
    hls::MhsaDesignPoint p = point;
    p.dtype = dtype;
    rt::DdrMemory ddr;
    rt::MhsaAccelerator accel(std::make_unique<hls::MhsaIpCore>(p, weights()), ddr);
    std::vector<nt::Tensor> ys;
    ys.reserve(xs.size());
    for (const auto& x : xs) ys.push_back(accel.execute(x));
    return ys;
  }

  [[nodiscard]] serve::EngineConfig cluster_config(std::vector<serve::DeviceConfig> devices) {
    serve::EngineConfig config;
    config.point = point;
    config.devices = std::move(devices);
    config.batcher.max_batch = 4;
    config.batcher.max_wait_us = 5000;  // linger so requests coalesce and split
    return config;
  }

  /// Submit all requests FIFO through a routed fleet and wait for results.
  [[nodiscard]] std::vector<nt::Tensor> routed(const serve::EngineConfig& config,
                                               const std::vector<nt::Tensor>& xs,
                                               serve::EngineStats* stats_out = nullptr) {
    serve::InferenceEngine engine(config, weights());
    std::vector<std::future<nt::Tensor>> futures;
    futures.reserve(xs.size());
    for (const auto& x : xs) futures.push_back(engine.submit(x));
    std::vector<nt::Tensor> ys;
    ys.reserve(xs.size());
    for (auto& f : futures) ys.push_back(f.get());
    engine.shutdown();
    if (stats_out) *stats_out = engine.stats();
    return ys;
  }
};

std::vector<serve::DeviceConfig> fleet(std::size_t n, serve::Backend backend) {
  std::vector<serve::DeviceConfig> devices(n);
  for (std::size_t i = 0; i < n; ++i) {
    devices[i].name = "dev" + std::to_string(i);
    devices[i].backend = backend;
  }
  return devices;
}

}  // namespace

TEST(Cluster, FloatFleetBitwiseEqualsSequentialSingleDevice) {
  ClusterFixture fx_;
  // Mixed sizes: rows > max_batch force splits and carries across batches.
  const auto xs = fx_.make_requests({1, 6, 2, 3, 1, 4, 7, 2, 1, 3, 5, 2});
  const auto ref = fx_.sequential_execute(hls::DataType::kFloat32, xs);
  serve::EngineStats stats;
  const auto got =
      fx_.routed(fx_.cluster_config(fleet(4, serve::Backend::kFpgaFloat)), xs, &stats);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].shape(), ref[i].shape()) << "request " << i;
    EXPECT_TRUE(nt::allclose(got[i], ref[i], 0.0f, 0.0f)) << "request " << i;
  }
  EXPECT_EQ(stats.completed, xs.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.device_stats.size(), 4u);
}

TEST(Cluster, HeterogeneousFleetStaysBitwiseOnFloatPaths) {
  ClusterFixture fx_;
  const auto xs = fx_.make_requests({2, 1, 5, 3, 1, 2, 4, 1, 6, 2});
  const auto ref = fx_.sequential_execute(hls::DataType::kFloat32, xs);
  // CPU-float board + two FPGA-float boards: placement must not matter.
  std::vector<serve::DeviceConfig> devices = fleet(3, serve::Backend::kFpgaFloat);
  devices[0].backend = serve::Backend::kCpuFloat;
  devices[2].clock_mhz = 100.0;  // slower board; router just costs it higher
  serve::EngineStats stats;
  const auto got = fx_.routed(fx_.cluster_config(std::move(devices)), xs, &stats);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(nt::allclose(got[i], ref[i], 0.0f, 0.0f)) << "request " << i;
  }
  EXPECT_EQ(stats.completed, xs.size());
  ASSERT_EQ(stats.device_stats.size(), 3u);
  EXPECT_EQ(stats.device_stats.at("dev0").backend, "cpu_float");
  EXPECT_EQ(stats.device_stats.at("dev1").backend, "fpga_float");
}

TEST(Cluster, FixedFleetBitwiseEqualsSequentialFixedAndWithinQuantTolerance) {
  ClusterFixture fx_;
  const auto xs = fx_.make_requests({1, 3, 2, 4, 1, 2, 5, 3});
  const auto fixed_ref = fx_.sequential_execute(hls::DataType::kFixed, xs);
  const auto float_ref = fx_.sequential_execute(hls::DataType::kFloat32, xs);
  const auto got = fx_.routed(fx_.cluster_config(fleet(4, serve::Backend::kFpgaFixed)), xs);
  ASSERT_EQ(got.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Identical fixed-point IPs on every board: placement cannot change bits.
    EXPECT_TRUE(nt::allclose(got[i], fixed_ref[i], 0.0f, 0.0f)) << "request " << i;
    // scheme_32_24: the paper's "no degradation" point (cf. QExec tests).
    EXPECT_LE(nt::max_abs_diff(got[i], float_ref[i]), 0.05f) << "request " << i;
  }
}

TEST(Cluster, FailoverUnderPerDeviceFaultStormStaysBitwise) {
  ClusterFixture fx_;
  const auto xs = fx_.make_requests({2, 3, 1, 4, 2, 1, 3, 2, 5, 1, 2, 3, 1, 4, 2, 1});
  const auto ref = fx_.sequential_execute(hls::DataType::kFloat32, xs);
  // dev1's DMA fails every transfer: retries exhaust, its breaker opens, the
  // session demotes to the (bitwise-identical) CPU float datapath, and the
  // router steers new work to the healthy boards.
  fault::Injector::instance().seed(7);
  fault::Injector::instance().arm("rt.dma.error.dev1", fault::Schedule::always());
  serve::EngineConfig config = fx_.cluster_config(fleet(4, serve::Backend::kFpgaFloat));
  // Trip before the retry budget runs out so no request can fail under an
  // always-on storm: the second consecutive fault opens the breaker and the
  // same recovery loop finishes the batch on the CPU datapath.
  config.breaker.open_after = 2;
  serve::EngineStats stats;
  const auto got = fx_.routed(config, xs, &stats);
  fault::Injector::instance().reset();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(nt::allclose(got[i], ref[i], 0.0f, 0.0f)) << "request " << i;
  }
  EXPECT_EQ(stats.completed, xs.size());
  EXPECT_EQ(stats.failed, 0u);
  // Only the stormed board's breaker may have tripped.
  EXPECT_EQ(stats.device_stats.at("dev0").breaker_opens, 0u);
  EXPECT_EQ(stats.device_stats.at("dev2").breaker_opens, 0u);
  EXPECT_EQ(stats.device_stats.at("dev3").breaker_opens, 0u);
}

TEST(Cluster, BreakerOpenSteersRouterToHealthyDevices) {
  ClusterFixture fx_;
  fault::Injector::instance().seed(11);
  fault::Injector::instance().arm("rt.dma.error.dev0", fault::Schedule::always());
  serve::EngineConfig config = fx_.cluster_config(fleet(2, serve::Backend::kFpgaFloat));
  config.breaker.open_after = 2;           // trip fast
  config.breaker.cooldown_us = 60'000'000; // never re-admitted within the test
  serve::InferenceEngine engine(config, fx_.weights());
  // First wave: dev0 will absorb some traffic, fault, and open its breaker.
  std::vector<std::future<nt::Tensor>> futures;
  const auto xs = fx_.make_requests(std::vector<index_t>(24, 1));
  for (std::size_t i = 0; i < 8; ++i) futures.push_back(engine.submit(xs[i]));
  for (std::size_t i = 0; i < 8; ++i) futures[i].get();
  // The breaker must be open by now (every dev0 batch faults through all
  // retries); everything new must land on dev1.
  const serve::EngineStats mid = engine.stats();
  ASSERT_GE(mid.device_stats.at("dev0").breaker_opens, 1u);
  EXPECT_TRUE(mid.device_stats.at("dev0").breaker_open);
  const std::uint64_t dev0_rows_before = mid.device_stats.at("dev0").rows;
  for (std::size_t i = 8; i < xs.size(); ++i) futures.push_back(engine.submit(xs[i]));
  for (std::size_t i = 8; i < xs.size(); ++i) futures[i].get();
  engine.shutdown();
  const serve::EngineStats fin = engine.stats();
  EXPECT_EQ(fin.completed, xs.size());
  // No second-wave batch ran on dev0: its rows stayed where the first wave
  // left them while dev1 absorbed the remainder.
  EXPECT_EQ(fin.device_stats.at("dev0").rows, dev0_rows_before);
  EXPECT_GE(fin.device_stats.at("dev1").rows, static_cast<std::uint64_t>(xs.size() - 8));
  fault::Injector::instance().reset();
}

TEST(Cluster, PerDeviceMetricNamesArePinned) {
  ClusterFixture fx_;
  std::vector<serve::DeviceConfig> devices = fleet(2, serve::Backend::kFpgaFloat);
  devices[0].name = "alpha";
  devices[1].name = "beta";
  const auto xs = fx_.make_requests({1, 2, 1, 2, 1, 2, 1, 2});
  (void)fx_.routed(fx_.cluster_config(std::move(devices)), xs);
  auto& reg = obs::Registry::instance();
  // The namespaced per-device counter names are API: dashboards and the soak
  // harness key on them, so a rename must fail this test.
  EXPECT_GT(reg.counter("serve.device.alpha.routed").value() +
                reg.counter("serve.device.beta.routed").value(),
            0);
  EXPECT_GT(reg.counter("serve.device.alpha.batches").value() +
                reg.counter("serve.device.beta.batches").value(),
            0);
  EXPECT_GT(reg.counter("serve.device.alpha.rows").value() +
                reg.counter("serve.device.beta.rows").value(),
            0);
  const std::string om = reg.to_openmetrics();
  EXPECT_NE(om.find("nodetr_serve_device_alpha_routed_total"), std::string::npos);
  EXPECT_NE(om.find("nodetr_serve_device_alpha_breaker_opens_total"), std::string::npos);
  EXPECT_NE(om.find("nodetr_serve_device_beta_breaker_closes_total"), std::string::npos);
  EXPECT_NE(om.find("nodetr_serve_device_beta_breaker_open"), std::string::npos);
}

// 1000-seed pure routing + packing sweep (no engine, no threads): FIFO-route
// random request sets across random fleets, pack each device's share with the
// batcher's planning core, and assert no row is dropped or double-assigned
// and per-device FIFO order survives splits.
TEST(ClusterProperty, RoutePlusPlanNeverDropsOrReordersRows) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n_devices = 1 + rng() % 8;
    const index_t max_batch = 1 + static_cast<index_t>(rng() % 8);
    std::vector<serve::ClusterRouter::DeviceSeed> seeds;
    for (std::size_t i = 0; i < n_devices; ++i) {
      seeds.push_back({"dev" + std::to_string(i),
                       1.0 + static_cast<double>(rng() % 500) / 100.0});
    }
    serve::ClusterRouter router(std::move(seeds));
    const std::size_t n_requests = 1 + rng() % 40;
    const auto now = serve::ClusterRouter::Clock::now();
    std::vector<std::vector<index_t>> per_device_rows(n_devices);
    std::vector<std::vector<std::size_t>> per_device_requests(n_devices);
    std::vector<index_t> request_rows(n_requests);
    for (std::size_t r = 0; r < n_requests; ++r) {
      request_rows[r] = 1 + static_cast<index_t>(rng() % 12);
      const std::size_t d = router.pick(request_rows[r], now);
      ASSERT_LT(d, n_devices) << "seed " << seed;
      router.on_dispatch(d, request_rows[r]);
      per_device_rows[d].push_back(request_rows[r]);
      per_device_requests[d].push_back(r);
      // Some requests resolve before the sweep ends (random completion).
      if (rng() % 3 == 0) router.on_resolved(d, request_rows[r]);
    }
    std::vector<index_t> rows_seen(n_requests, 0);
    for (std::size_t d = 0; d < n_devices; ++d) {
      const auto plans = serve::MicroBatcher::plan(per_device_rows[d], max_batch);
      std::size_t last_request = 0;
      index_t last_row_end = 0;
      for (const auto& batch : plans) {
        index_t batch_rows = 0;
        for (const auto& slice : batch) {
          ASSERT_LT(slice.request, per_device_requests[d].size()) << "seed " << seed;
          const std::size_t global = per_device_requests[d][slice.request];
          // FIFO per device: slices advance monotonically through the
          // device's request sequence, rows in order within each request.
          ASSERT_GE(slice.request, last_request) << "seed " << seed;
          if (slice.request != last_request) last_row_end = 0;
          ASSERT_EQ(slice.row_begin, last_row_end) << "seed " << seed;
          last_request = slice.request;
          last_row_end = slice.row_end;
          rows_seen[global] += slice.row_end - slice.row_begin;
          batch_rows += slice.row_end - slice.row_begin;
        }
        ASSERT_LE(batch_rows, max_batch) << "seed " << seed;
      }
    }
    for (std::size_t r = 0; r < n_requests; ++r) {
      ASSERT_EQ(rows_seen[r], request_rows[r]) << "seed " << seed << " request " << r;
    }
  }
}

// Live-engine property sweep over (fleet size, backends, batch geometry,
// priorities, per-device fault schedules): every accepted future must resolve
// exactly once, results must match the single-device reference, and requests
// routed to the same device must begin execution in submission order (FIFO
// per client — there is one submitting client, so submission order is the
// client order). Seed count scales with NODETR_CLUSTER_SWEEP_SEEDS.
TEST(ClusterProperty, LiveFleetSweepResolvesEveryFutureExactlyOnceInFifoOrder) {
  int sweep_seeds = 24;
  if (const char* env = std::getenv("NODETR_CLUSTER_SWEEP_SEEDS")) {
    sweep_seeds = std::max(1, std::atoi(env));
  }
  ClusterFixture fx_;
  obs::FlightRecorder::instance().set_enabled(true);
  for (int seed = 0; seed < sweep_seeds; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
    fault::Injector::instance().reset();
    obs::FlightRecorder::instance().clear();

    const std::size_t n_devices = 1 + rng() % 4;
    const bool fixed_fleet = rng() % 4 == 0;  // homogeneous fixed, else float mix
    std::vector<serve::DeviceConfig> devices(n_devices);
    for (std::size_t i = 0; i < n_devices; ++i) {
      devices[i].name = "dev" + std::to_string(i);
      devices[i].backend = fixed_fleet             ? serve::Backend::kFpgaFixed
                           : (rng() % 3 == 0)      ? serve::Backend::kCpuFloat
                                                   : serve::Backend::kFpgaFloat;
      devices[i].clock_mhz = 100.0 + static_cast<double>(rng() % 300);
    }
    serve::EngineConfig config = fx_.cluster_config(std::move(devices));
    config.batcher.max_batch = 1 + static_cast<index_t>(rng() % 6);
    config.batcher.max_wait_us = static_cast<std::int64_t>(rng() % 3000);
    // Trip the breaker before the retry budget can run out, so a fault storm
    // demotes to the CPU datapath instead of failing innocent requests.
    config.breaker.open_after = 2;
    if (!fixed_fleet && rng() % 2 == 0) {
      // Deterministic per-board fault stream on one random device; float
      // fleets recover bitwise (retry, breaker, CPU fallback).
      fault::Injector::instance().seed(static_cast<std::uint64_t>(seed));
      fault::Injector::instance().arm(
          "rt.dma.error.dev" + std::to_string(rng() % n_devices),
          fault::Schedule::with_probability(0.3));
    }

    const std::size_t n_requests = 8 + rng() % 17;
    std::vector<index_t> rows(n_requests);
    for (auto& r : rows) r = 1 + static_cast<index_t>(rng() % 7);
    const auto xs = fx_.make_requests(rows);
    const auto ref = fx_.sequential_execute(hls::DataType::kFloat32, xs);

    serve::InferenceEngine engine(config, fx_.weights());
    std::vector<std::future<nt::Tensor>> futures;
    std::vector<std::uint64_t> trace_ids;
    static const serve::Priority kPriorities[] = {
        serve::Priority::kBatch, serve::Priority::kNormal, serve::Priority::kInteractive};
    for (std::size_t i = 0; i < n_requests; ++i) {
      serve::SubmitOptions opts;
      opts.priority = kPriorities[rng() % 3];
      opts.trace_id = obs::new_trace_id();
      trace_ids.push_back(opts.trace_id);
      futures.push_back(engine.submit(xs[i], opts));
    }
    std::size_t resolved_ok = 0, resolved_err = 0;
    for (std::size_t i = 0; i < n_requests; ++i) {
      try {
        const nt::Tensor y = futures[i].get();
        ++resolved_ok;
        if (fixed_fleet) {
          EXPECT_LE(nt::max_abs_diff(y, ref[i]), 0.05f) << "seed " << seed << " req " << i;
        } else {
          EXPECT_TRUE(nt::allclose(y, ref[i], 0.0f, 0.0f)) << "seed " << seed << " req " << i;
        }
      } catch (...) {
        ++resolved_err;  // still resolved exactly once — never hangs
      }
    }
    engine.shutdown();
    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(resolved_ok + resolved_err, n_requests) << "seed " << seed;
    EXPECT_EQ(stats.completed, resolved_ok) << "seed " << seed;
    EXPECT_EQ(stats.failed + stats.expired, resolved_err) << "seed " << seed;
    EXPECT_EQ(resolved_err, 0u) << "seed " << seed;  // no TTLs, transient faults only

    // FIFO per device: requests routed to the same board must begin their
    // first execution in submission order (the engine is quiesced, so the
    // flight rings are stable).
    std::map<std::int64_t, std::uint64_t> last_exec_per_device;
    for (std::size_t i = 0; i < n_requests; ++i) {
      const auto events = obs::FlightRecorder::instance().events_for(trace_ids[i]);
      std::int64_t device = -1;
      std::uint64_t first_exec_ns = 0;
      for (const auto& ev : events) {
        if (ev.kind == obs::FlightKind::kRouted && device == -1) device = ev.a;
        if (ev.kind == obs::FlightKind::kExecBegin && first_exec_ns == 0) {
          first_exec_ns = ev.ts_ns;
        }
      }
      ASSERT_GE(device, 0) << "seed " << seed << " req " << i << " never routed";
      ASSERT_GT(first_exec_ns, 0u) << "seed " << seed << " req " << i << " never executed";
      const auto it = last_exec_per_device.find(device);
      if (it != last_exec_per_device.end()) {
        EXPECT_GE(first_exec_ns, it->second)
            << "seed " << seed << " req " << i << " executed before its "
            << "predecessor on device " << device;
      }
      last_exec_per_device[device] = first_exec_ns;
    }
  }
  fault::Injector::instance().reset();
}
