// InferenceEngine and RequestQueue behaviour under concurrency: backpressure,
// N concurrent producers, clean shutdown draining in-flight requests, and
// exactly-once future fulfilment.
#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;
using nt::index_t;

namespace {

serve::RequestPtr dummy_request(std::uint64_t id) {
  auto r = std::make_shared<serve::Request>();
  r->id = id;
  r->input = nt::Tensor(nt::Shape{1, 2, 1, 2});
  r->enqueued_at = std::chrono::steady_clock::now();
  return r;
}

struct EngineFixture {
  nt::Rng rng{7};
  nn::MhsaConfig cfg;
  std::unique_ptr<nn::MultiHeadSelfAttention> mhsa;
  hls::MhsaDesignPoint point;

  EngineFixture() {
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

  [[nodiscard]] hls::MhsaWeights weights() { return hls::MhsaWeights::from_module(*mhsa); }

  [[nodiscard]] serve::EngineConfig config(serve::Backend backend, std::size_t workers,
                                           std::size_t capacity) {
    serve::EngineConfig c;
    c.point = point;
    c.backend = backend;
    c.workers = workers;
    c.queue_capacity = capacity;
    return c;
  }
};

}  // namespace

// ---------------------------------------------------------------- queue ----

TEST(RequestQueue, RejectPolicyReportsFullAtCapacity) {
  serve::RequestQueue q(2, serve::BackpressurePolicy::kReject);
  EXPECT_EQ(q.push(dummy_request(0)), serve::PushResult::kOk);
  EXPECT_EQ(q.push(dummy_request(1)), serve::PushResult::kOk);
  EXPECT_EQ(q.push(dummy_request(2)), serve::PushResult::kFull);
  (void)q.try_pop();
  EXPECT_EQ(q.push(dummy_request(3)), serve::PushResult::kOk);
}

TEST(RequestQueue, BlockPolicyWaitsForSpace) {
  serve::RequestQueue q(1, serve::BackpressurePolicy::kBlock);
  ASSERT_EQ(q.push(dummy_request(0)), serve::PushResult::kOk);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(dummy_request(1)), serve::PushResult::kOk);
    pushed.store(true);
  });
  // The producer must be blocked until we pop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  auto r = q.pop();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, 0u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.size(), 1u);
}

TEST(RequestQueue, CloseDrainsQueuedItemsThenReturnsNull) {
  serve::RequestQueue q(4, serve::BackpressurePolicy::kBlock);
  ASSERT_EQ(q.push(dummy_request(0)), serve::PushResult::kOk);
  ASSERT_EQ(q.push(dummy_request(1)), serve::PushResult::kOk);
  q.close();
  EXPECT_EQ(q.push(dummy_request(2)), serve::PushResult::kClosed);
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_NE(q.pop(), nullptr);
  EXPECT_EQ(q.pop(), nullptr);  // closed and drained — no blocking
}

TEST(RequestQueue, CloseUnblocksBlockedProducer) {
  serve::RequestQueue q(1, serve::BackpressurePolicy::kBlock);
  ASSERT_EQ(q.push(dummy_request(0)), serve::PushResult::kOk);
  std::thread producer([&] { EXPECT_EQ(q.push(dummy_request(1)), serve::PushResult::kClosed); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
}

// --------------------------------------------------------------- engine ----

// Both float backends run the software module on the engine's weights, so
// every output is bitwise the module's inference forward, whatever batches
// the requests landed in.
TEST(Engine, FloatBackendsMatchModuleInferenceForwardBitwise) {
  EngineFixture fx_;
  std::vector<nt::Tensor> inputs, want;
  for (index_t i = 0; i < 6; ++i) {
    inputs.push_back(fx_.rng.rand(nt::Shape{1 + i % 3, 16, 4, 4}));
    const nn::InferenceScope inference(*fx_.mhsa);
    want.push_back(fx_.mhsa->forward(inputs.back()));
  }
  for (const serve::Backend backend : {serve::Backend::kCpuFloat, serve::Backend::kFpgaFloat}) {
    serve::InferenceEngine engine(fx_.config(backend, 2, 16), fx_.weights());
    std::vector<std::future<nt::Tensor>> futures;
    for (const nt::Tensor& x : inputs) futures.push_back(engine.submit(x));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_TRUE(nt::allclose(futures[i].get(), want[i], 0.0f, 0.0f))
          << serve::to_string(backend) << " request " << i;
    }
  }
}

TEST(Engine, ConcurrentProducersEveryFutureFulfilledExactlyOnce) {
  EngineFixture fx_;
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 20;
  serve::InferenceEngine engine(fx_.config(serve::Backend::kFpgaFloat, 2, 8), fx_.weights());

  hls::MhsaDesignPoint p = fx_.point;
  p.dtype = hls::DataType::kFloat32;
  hls::MhsaIpCore reference(p, fx_.weights());

  struct Slot {
    nt::Tensor input;
    std::future<nt::Tensor> future;
  };
  std::vector<std::vector<Slot>> slots(kProducers);
  std::vector<std::thread> producers;
  std::mutex rng_mu;  // Rng is not thread-safe; inputs are drawn under a lock
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        nt::Tensor x;
        {
          std::lock_guard lk(rng_mu);
          const index_t rows = 1 + (t + i) % 3;
          x = fx_.rng.rand(nt::Shape{rows, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width});
        }
        auto f = engine.submit(x);  // kBlock: never rejects, may wait
        slots[t].push_back({std::move(x), std::move(f)});
      }
    });
  }
  for (auto& t : producers) t.join();

  std::uint64_t total_rows = 0;
  for (auto& per_producer : slots) {
    ASSERT_EQ(per_producer.size(), static_cast<std::size_t>(kPerProducer));
    for (auto& slot : per_producer) {
      auto y = slot.future.get();  // throws if the future was lost or doubled
      total_rows += static_cast<std::uint64_t>(slot.input.dim(0));
      EXPECT_TRUE(nt::allclose(y, reference.run(slot.input), 0.0f, 0.0f));
    }
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.rows, total_rows);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.sim_cycles, 0);
  EXPECT_LE(stats.occupancy(engine.config().batcher.max_batch), 1.0);
}

TEST(EngineQuant, CpuQuantMatchesDirectQuantizedIpBitwise) {
  // The kCpuQuant replica must run the fixed datapath on int8-block-degraded
  // weights — exactly what a standalone MhsaIpCore at the same design point
  // (kFixed dtype, kBlockInt8 wire) computes.
  EngineFixture fx_;
  auto x = fx_.rng.rand(nt::Shape{2, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width});
  nt::Tensor served;
  {
    serve::InferenceEngine engine(fx_.config(serve::Backend::kCpuQuant, 1, 8), fx_.weights());
    served = engine.submit(x).get();
  }
  hls::MhsaDesignPoint point = fx_.point;
  point.dtype = hls::DataType::kFixed;
  point.wire = hls::WeightWire::kBlockInt8;
  hls::MhsaIpCore direct(point, fx_.weights());
  EXPECT_TRUE(nt::allclose(served, direct.run(x), 0.0f, 0.0f));
}

TEST(EngineQuant, CpuQuantStaysCloseToFloatBackend) {
  // Accuracy contract for the quantized backend: int8-wire weights + the
  // 32(16)/24(8) fixed scheme serve within tight tolerance of float.
  EngineFixture fx_;
  auto x = fx_.rng.rand(nt::Shape{1, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width});
  nt::Tensor y_float, y_quant;
  {
    serve::InferenceEngine engine(fx_.config(serve::Backend::kCpuFloat, 1, 8), fx_.weights());
    y_float = engine.submit(x).get();
  }
  {
    serve::InferenceEngine engine(fx_.config(serve::Backend::kCpuQuant, 1, 8), fx_.weights());
    y_quant = engine.submit(x).get();
  }
  EXPECT_LT(nt::max_abs_diff(y_quant, y_float), 0.5f);
  auto stats_name = serve::to_string(serve::Backend::kCpuQuant);
  EXPECT_STREQ(stats_name, "cpu_quant");
}

TEST(EngineQuant, MixedWorkerBackendsServeConcurrently) {
  EngineFixture fx_;
  serve::EngineConfig config = fx_.config(serve::Backend::kCpuFloat, 2, 32);
  config.devices.resize(2);
  config.devices[0].backend = serve::Backend::kCpuFloat;
  config.devices[1].backend = serve::Backend::kCpuQuant;
  serve::InferenceEngine engine(config, fx_.weights());
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        engine.submit(fx_.rng.rand(nt::Shape{1, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width})));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().dim(0), 1);
  engine.shutdown();
  EXPECT_EQ(engine.stats().completed, 16u);
  EXPECT_EQ(engine.stats().failed, 0u);
}

TEST(Engine, ShutdownDrainsInFlightThenRejectsNewWork) {
  EngineFixture fx_;
  serve::InferenceEngine engine(fx_.config(serve::Backend::kFpgaFloat, 2, 64), fx_.weights());
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back(
        engine.submit(fx_.rng.rand(nt::Shape{1, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width})));
  }
  engine.shutdown();
  for (auto& f : futures) {
    auto y = f.get();  // every accepted request must still complete
    EXPECT_EQ(y.dim(0), 1);
  }
  EXPECT_EQ(engine.stats().completed, 30u);
  EXPECT_THROW(
      (void)engine.submit(nt::Tensor(nt::Shape{1, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width})),
      std::runtime_error);
  engine.shutdown();  // idempotent
}

TEST(Engine, DestructorDrainsOutstandingFutures) {
  EngineFixture fx_;
  std::vector<std::future<nt::Tensor>> futures;
  {
    serve::InferenceEngine engine(fx_.config(serve::Backend::kCpuFloat, 2, 32), fx_.weights());
    for (int i = 0; i < 12; ++i) {
      futures.push_back(
          engine.submit(fx_.rng.rand(nt::Shape{2, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width})));
    }
  }
  for (auto& f : futures) EXPECT_EQ(f.get().dim(0), 2);
}

TEST(Engine, RejectPolicySurfacesQueueFullError) {
  EngineFixture fx_;
  serve::EngineConfig config = fx_.config(serve::Backend::kCpuFloat, 1, 1);
  config.policy = serve::BackpressurePolicy::kReject;
  config.batcher.max_batch = 2;
  config.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(config, fx_.weights());
  // Pin the single worker on a long request: once popped, its remaining rows
  // are carried worker-locally, so the queue is not polled again until all
  // 256 micro-batches are done — plenty of time to overfill the 1-slot queue.
  auto big = engine.submit(
      fx_.rng.rand(nt::Shape{512, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width}));
  while (engine.stats().batches == 0) std::this_thread::yield();
  auto filler = engine.submit(
      fx_.rng.rand(nt::Shape{1, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width}));
  EXPECT_THROW(
      (void)engine.submit(
          fx_.rng.rand(nt::Shape{1, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width})),
      serve::QueueFullError);
  EXPECT_EQ(engine.stats().rejected, 1u);
  EXPECT_EQ(big.get().dim(0), 512);
  EXPECT_EQ(filler.get().dim(0), 1);  // accepted requests still complete
}

TEST(Engine, ZeroRowRequestResolvesImmediately) {
  EngineFixture fx_;
  serve::InferenceEngine engine(fx_.config(serve::Backend::kCpuFloat, 1, 4), fx_.weights());
  auto f = engine.submit(nt::Tensor(nt::Shape{0, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width}));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().dim(0), 0);
}

TEST(Engine, RejectsMismatchedGeometryAndBadConfig) {
  EngineFixture fx_;
  serve::InferenceEngine engine(fx_.config(serve::Backend::kCpuFloat, 1, 4), fx_.weights());
  EXPECT_THROW((void)engine.submit(nt::Tensor(nt::Shape{1, 8, 4, 4})), std::invalid_argument);
  EXPECT_THROW((void)engine.submit(nt::Tensor(nt::Shape{16})), std::invalid_argument);

  serve::EngineConfig bad = fx_.config(serve::Backend::kCpuFloat, 0, 4);
  EXPECT_THROW(serve::InferenceEngine(bad, fx_.weights()), std::invalid_argument);
}

TEST(Engine, DeviceNamesDefaultToIndexAndMustBeUnique) {
  EngineFixture fx_;
  // Names key both the per-board metrics and the fault scopes.
  serve::EngineConfig bad = fx_.config(serve::Backend::kCpuFloat, 1, 4);
  bad.devices.resize(2);
  bad.devices[0].name = "a";
  bad.devices[1].name = "a";
  EXPECT_THROW(serve::InferenceEngine(bad, fx_.weights()), std::invalid_argument);

  serve::EngineConfig fleet = fx_.config(serve::Backend::kCpuFloat, 1, 4);
  fleet.devices.resize(2);
  fleet.devices[0].backend = serve::Backend::kCpuFloat;
  fleet.devices[1].name = "b";
  fleet.devices[1].backend = serve::Backend::kCpuFloat;
  serve::InferenceEngine cluster(fleet, fx_.weights());
  EXPECT_EQ(cluster.config().workers, 2u);
  EXPECT_EQ(cluster.config().devices[0].name, "dev0");
  EXPECT_EQ(cluster.config().devices[1].name, "b");
  const auto cluster_stats = cluster.stats();
  EXPECT_EQ(cluster_stats.device_stats.count("dev0"), 1u);
  EXPECT_EQ(cluster_stats.device_stats.count("b"), 1u);

  // A flat engine's workers are boards "dev<i>" running `backend`.
  serve::InferenceEngine flat(fx_.config(serve::Backend::kFpgaFloat, 3, 4), fx_.weights());
  const auto flat_stats = flat.stats();
  ASSERT_EQ(flat_stats.device_stats.size(), 3u);
  for (const char* name : {"dev0", "dev1", "dev2"}) {
    EXPECT_EQ(flat_stats.device_stats.at(name).backend, "fpga_float") << name;
  }
}

TEST(Engine, SplitRequestYieldsFullBatchesAndExactStats) {
  EngineFixture fx_;
  serve::EngineConfig config = fx_.config(serve::Backend::kFpgaFloat, 1, 4);
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(config, fx_.weights());
  auto x = fx_.rng.rand(nt::Shape{16, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width});
  auto y = engine.submit(x).get();
  EXPECT_EQ(y.dim(0), 16);
  const auto stats = engine.stats();
  // One 16-row request at max_batch 8 splits into exactly two full batches.
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.rows, 16u);
  EXPECT_DOUBLE_EQ(stats.occupancy(config.batcher.max_batch), 1.0);
}

TEST(Engine, MixedFloatWorkerBackendsStayBitwiseExact) {
  EngineFixture fx_;
  serve::EngineConfig config = fx_.config(serve::Backend::kFpgaFloat, 2, 16);
  config.devices.resize(2);
  config.devices[0].backend = serve::Backend::kCpuFloat;
  config.devices[1].backend = serve::Backend::kFpgaFloat;
  serve::InferenceEngine engine(config, fx_.weights());
  hls::MhsaDesignPoint p = fx_.point;
  p.dtype = hls::DataType::kFloat32;
  hls::MhsaIpCore reference(p, fx_.weights());
  std::vector<nt::Tensor> xs;
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(fx_.rng.rand(nt::Shape{1 + i % 3, fx_.cfg.dim, fx_.cfg.height, fx_.cfg.width}));
    futures.push_back(engine.submit(xs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(nt::allclose(futures[i].get(), reference.run(xs[i]), 0.0f, 0.0f))
        << "request " << i;
  }
}
