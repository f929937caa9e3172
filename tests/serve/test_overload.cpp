// Overload protection: admission control, request deadlines/TTLs, shed-oldest
// backpressure, the circuit breaker's state machine, and the adaptive
// batcher. The invariant throughout: shed or expired work always resolves
// with a typed error — never silently, never hanging.
#include <gtest/gtest.h>

#include <thread>

#include "nodetr/fault/fault.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace serve = nodetr::serve;
namespace fault = nodetr::fault;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;
using nt::index_t;
using Clock = std::chrono::steady_clock;

namespace {

serve::RequestPtr dummy_request(std::uint64_t id) {
  auto r = std::make_shared<serve::Request>();
  r->id = id;
  r->input = nt::Tensor(nt::Shape{1, 2, 1, 2});
  r->enqueued_at = Clock::now();
  return r;
}

struct OverloadFixture {
  nt::Rng rng{7};
  nn::MhsaConfig cfg;
  std::unique_ptr<nn::MultiHeadSelfAttention> mhsa;
  hls::MhsaDesignPoint point;

  OverloadFixture() {
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

  [[nodiscard]] serve::EngineConfig config(std::size_t workers, std::size_t capacity) {
    serve::EngineConfig c;
    c.point = point;
    c.backend = serve::Backend::kCpuFloat;
    c.workers = workers;
    c.queue_capacity = capacity;
    return c;
  }

  [[nodiscard]] nt::Tensor input(index_t rows) {
    return rng.rand(nt::Shape{rows, cfg.dim, cfg.height, cfg.width});
  }
};

}  // namespace

// ----------------------------------------------------------- admission ----

TEST(Admission, DisabledAdmitsEverything) {
  serve::AdmissionController adm(serve::AdmissionConfig{});
  EXPECT_TRUE(adm.admit(serve::Priority::kBatch, 1'000));
  adm.record_wait(1'000'000);
  EXPECT_EQ(adm.overload_level(), 0);
}

TEST(Admission, StandingDelayShedsLowestPriorityFirst) {
  serve::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.target_wait_us = 100;
  cfg.interval_us = 1'000;
  cfg.escalate_ratio = 4.0;
  serve::AdmissionController adm(cfg);
  const auto t0 = Clock::now();

  // Waits above target, but the interval has not elapsed: a burst that might
  // still clear — no shedding yet.
  adm.record_wait(300, t0);
  adm.record_wait(300, t0 + std::chrono::microseconds(500));
  EXPECT_EQ(adm.overload_level(), 0);

  // A whole interval where even the minimum wait exceeded the target: level 1
  // (the closing 900 seeds the rolled interval, but this interval's min was
  // 300, under the 400 escalate threshold).
  adm.record_wait(900, t0 + std::chrono::microseconds(1'100));
  EXPECT_EQ(adm.overload_level(), 1);
  EXPECT_FALSE(adm.admit(serve::Priority::kBatch, 5));
  EXPECT_TRUE(adm.admit(serve::Priority::kNormal, 5));
  EXPECT_TRUE(adm.admit(serve::Priority::kInteractive, 5));
  // An empty queue has no standing delay to protect: always admit.
  EXPECT_TRUE(adm.admit(serve::Priority::kBatch, 0));

  // Minimum wait beyond escalate_ratio * target for a whole interval: level 2.
  adm.record_wait(900, t0 + std::chrono::microseconds(2'200));
  EXPECT_EQ(adm.overload_level(), 2);
  EXPECT_FALSE(adm.admit(serve::Priority::kNormal, 5));
  EXPECT_TRUE(adm.admit(serve::Priority::kInteractive, 5));
}

TEST(Admission, OneGoodSampleExitsOverloadImmediately) {
  serve::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.target_wait_us = 100;
  cfg.interval_us = 1'000;
  serve::AdmissionController adm(cfg);
  const auto t0 = Clock::now();
  adm.record_wait(200, t0);  // above target, below the 400 escalate threshold
  adm.record_wait(200, t0 + std::chrono::microseconds(1'100));
  ASSERT_EQ(adm.overload_level(), 1);
  // CoDel exit: a single request served under target means the queue drained.
  adm.record_wait(10, t0 + std::chrono::microseconds(1'200));
  EXPECT_EQ(adm.overload_level(), 0);
  EXPECT_TRUE(adm.admit(serve::Priority::kBatch, 5));
}

TEST(Admission, ValidatesConfig) {
  serve::AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.target_wait_us = 0;
  EXPECT_THROW(serve::AdmissionController{cfg}, std::invalid_argument);
  cfg.target_wait_us = 100;
  cfg.interval_us = 0;
  EXPECT_THROW(serve::AdmissionController{cfg}, std::invalid_argument);
  cfg.interval_us = 1'000;
  cfg.escalate_ratio = 0.5;
  EXPECT_THROW(serve::AdmissionController{cfg}, std::invalid_argument);
}

// ------------------------------------------------------------- breaker ----

TEST(Breaker, OpensAfterConsecutiveFaultsAndSuccessResetsTheCount) {
  serve::BreakerConfig cfg;
  cfg.open_after = 3;
  serve::CircuitBreaker breaker(cfg);
  using Event = serve::CircuitBreaker::Event;
  EXPECT_EQ(breaker.on_fault(), Event::kNone);
  EXPECT_EQ(breaker.on_fault(), Event::kNone);
  EXPECT_EQ(breaker.on_success(), Event::kNone);  // resets the streak
  EXPECT_EQ(breaker.consecutive_faults(), 0);
  EXPECT_EQ(breaker.on_fault(), Event::kNone);
  EXPECT_EQ(breaker.on_fault(), Event::kNone);
  EXPECT_EQ(breaker.on_fault(), Event::kOpened);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
}

TEST(Breaker, ProbeAfterCooldownClosesOnSuccess) {
  serve::BreakerConfig cfg;
  cfg.open_after = 1;
  cfg.cooldown_us = 1'000;
  serve::CircuitBreaker breaker(cfg);
  const auto t0 = Clock::now();
  ASSERT_EQ(breaker.on_fault(t0), serve::CircuitBreaker::Event::kOpened);
  EXPECT_FALSE(breaker.probe_due(t0 + std::chrono::microseconds(500)));
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_TRUE(breaker.probe_due(t0 + std::chrono::microseconds(1'500)));
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.probe_due(t0 + std::chrono::microseconds(1'500)));  // one probe owed
  EXPECT_EQ(breaker.on_success(), serve::CircuitBreaker::Event::kClosed);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
}

TEST(Breaker, FailedProbeBacksOffExponentiallyCapped) {
  serve::BreakerConfig cfg;
  cfg.open_after = 1;
  cfg.cooldown_us = 1'000;
  cfg.cooldown_multiplier = 10.0;
  cfg.max_cooldown_us = 50'000;
  serve::CircuitBreaker breaker(cfg);
  auto now = Clock::now();
  ASSERT_EQ(breaker.on_fault(now), serve::CircuitBreaker::Event::kOpened);
  EXPECT_EQ(breaker.current_cooldown_us(), 1'000);
  now += std::chrono::microseconds(1'500);
  ASSERT_TRUE(breaker.probe_due(now));
  EXPECT_EQ(breaker.on_fault(now), serve::CircuitBreaker::Event::kReopened);
  EXPECT_EQ(breaker.current_cooldown_us(), 10'000);
  now += std::chrono::microseconds(10'500);
  ASSERT_TRUE(breaker.probe_due(now));
  EXPECT_EQ(breaker.on_fault(now), serve::CircuitBreaker::Event::kReopened);
  EXPECT_EQ(breaker.current_cooldown_us(), 50'000);  // capped
}

TEST(Breaker, OpenAfterZeroDisablesTheBreaker) {
  serve::BreakerConfig cfg;
  cfg.open_after = 0;
  serve::CircuitBreaker breaker(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(breaker.on_fault(), serve::CircuitBreaker::Event::kNone);
  }
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
}

TEST(Breaker, ValidatesConfig) {
  serve::BreakerConfig cfg;
  cfg.open_after = -1;
  EXPECT_THROW(serve::CircuitBreaker{cfg}, std::invalid_argument);
  cfg.open_after = 1;
  cfg.cooldown_us = -1;
  EXPECT_THROW(serve::CircuitBreaker{cfg}, std::invalid_argument);
  cfg.cooldown_us = 1;
  cfg.cooldown_multiplier = 0.5;
  EXPECT_THROW(serve::CircuitBreaker{cfg}, std::invalid_argument);
}

// ---------------------------------------------------- adaptive batching ----

TEST(AdaptiveBatcher, LingerScalesWithQueueDepth) {
  serve::RequestQueue q(64, serve::BackpressurePolicy::kBlock);
  serve::BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 1'000;
  cfg.adaptive = true;
  cfg.min_wait_us = 0;
  serve::MicroBatcher batcher(q, cfg, [](serve::RequestPtr) {});
  EXPECT_EQ(batcher.effective_wait_us(), 0);  // idle: don't hold rows hostage
  for (std::uint64_t i = 0; i < 4; ++i) ASSERT_EQ(q.push(dummy_request(i)), serve::PushResult::kOk);
  const auto half = batcher.effective_wait_us();
  EXPECT_GT(half, 0);
  EXPECT_LT(half, 1'000);
  for (std::uint64_t i = 4; i < 12; ++i) {
    ASSERT_EQ(q.push(dummy_request(i)), serve::PushResult::kOk);
  }
  EXPECT_EQ(batcher.effective_wait_us(), 1'000);  // backlog: full linger
}

TEST(AdaptiveBatcher, ValidatesMinWait) {
  serve::RequestQueue q(4, serve::BackpressurePolicy::kBlock);
  serve::BatcherConfig cfg;
  cfg.adaptive = true;
  cfg.max_wait_us = 100;
  cfg.min_wait_us = 200;
  EXPECT_THROW(serve::MicroBatcher(q, cfg, [](serve::RequestPtr) {}), std::invalid_argument);
  cfg.min_wait_us = -1;
  EXPECT_THROW(serve::MicroBatcher(q, cfg, [](serve::RequestPtr) {}), std::invalid_argument);
}

// ------------------------------------------------- deadlines and TTLs ----

TEST(Overload, PastDeadlineRefusedAtAdmission) {
  OverloadFixture f;
  serve::InferenceEngine engine(f.config(1, 8), f.weights());
  serve::SubmitOptions opts;
  opts.deadline = Clock::now() - std::chrono::seconds(1);
  EXPECT_THROW((void)engine.submit(f.input(1), opts), serve::RequestExpired);
  EXPECT_EQ(engine.stats().expired, 1u);
  EXPECT_EQ(engine.stats().submitted, 0u);
}

TEST(Overload, NegativeTtlRejected) {
  OverloadFixture f;
  serve::InferenceEngine engine(f.config(1, 8), f.weights());
  serve::SubmitOptions opts;
  opts.ttl_us = -5;
  EXPECT_THROW((void)engine.submit(f.input(1), opts), std::invalid_argument);
}

TEST(Overload, TtlExpiredInQueueResolvesWithRequestExpired) {
  OverloadFixture f;
  serve::EngineConfig cfg = f.config(1, 64);
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(cfg, f.weights());
  // Pin the single worker on a long request; the TTL'd request behind it
  // expires in the queue and must be shed at batch formation, not computed.
  auto pin = engine.submit(f.input(256));
  while (engine.stats().batches == 0) std::this_thread::yield();
  serve::SubmitOptions opts;
  opts.ttl_us = 1;  // expires long before the pin finishes
  auto doomed = engine.submit(f.input(1), opts);
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_THROW((void)doomed.get(), serve::RequestExpired);
  EXPECT_EQ(pin.get().dim(0), 256);  // the pin itself is unaffected
  const auto stats = engine.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Overload, GenerousTtlCompletesNormally) {
  OverloadFixture f;
  serve::InferenceEngine engine(f.config(1, 8), f.weights());
  serve::SubmitOptions opts;
  opts.ttl_us = 30'000'000;
  const nt::Tensor x = f.input(2);
  auto y = engine.submit(x, opts).get();
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(engine.stats().expired, 0u);
}

TEST(Overload, ForcedExpireSiteShedsAtBatchFormation) {
  auto& inj = fault::Injector::instance();
  inj.reset();
  inj.seed(1);
  inj.arm("serve.overload.expire", fault::Schedule::once(0));
  OverloadFixture f;
  serve::InferenceEngine engine(f.config(1, 8), f.weights());
  auto doomed = engine.submit(f.input(1));  // no deadline: the site forces one
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_THROW((void)doomed.get(), serve::RequestExpired);
  // The next request takes the normal path.
  EXPECT_EQ(engine.submit(f.input(1)).get().dim(0), 1);
  inj.reset();
}

TEST(Overload, ForcedShedSiteThrowsRequestShedError) {
  auto& inj = fault::Injector::instance();
  inj.reset();
  inj.seed(1);
  inj.arm("serve.overload.shed", fault::Schedule::once(0));
  OverloadFixture f;
  serve::InferenceEngine engine(f.config(1, 8), f.weights());
  EXPECT_THROW((void)engine.submit(f.input(1)), serve::RequestShedError);
  EXPECT_EQ(engine.stats().shed, 1u);
  EXPECT_EQ(engine.submit(f.input(1)).get().dim(0), 1);
  inj.reset();
}

// ------------------------------------------------------- kShedOldest ----

TEST(Overload, ShedOldestEvictsStalestQueuedRequest) {
  OverloadFixture f;
  serve::EngineConfig cfg = f.config(1, 1);
  cfg.policy = serve::BackpressurePolicy::kShedOldest;
  cfg.batcher.max_batch = 2;
  cfg.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(cfg, f.weights());
  // Pin the worker so the 1-slot queue stays full.
  auto pin = engine.submit(f.input(256));
  while (engine.stats().batches == 0) std::this_thread::yield();
  auto stale = engine.submit(f.input(1));  // fills the queue
  auto fresh = engine.submit(f.input(1));  // evicts `stale`
  ASSERT_EQ(stale.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_THROW((void)stale.get(), serve::RequestShedError);
  EXPECT_EQ(fresh.get().dim(0), 1);  // the fresh request completes
  EXPECT_EQ(pin.get().dim(0), 256);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // eviction, not rejection
}

TEST(RequestQueueShed, NullShedSlotDegradesToReject) {
  serve::RequestQueue q(1, serve::BackpressurePolicy::kShedOldest);
  ASSERT_EQ(q.push(dummy_request(0)), serve::PushResult::kOk);
  EXPECT_EQ(q.push(dummy_request(1), nullptr), serve::PushResult::kFull);
  serve::RequestPtr victim;
  EXPECT_EQ(q.push(dummy_request(2), &victim), serve::PushResult::kOk);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->id, 0u);
  EXPECT_EQ(q.size(), 1u);
}

// -------------------------------------------------- engine integration ----

TEST(Overload, AdmissionShedsBatchTrafficUnderStandingBacklog) {
  OverloadFixture f;
  serve::EngineConfig cfg = f.config(1, 256);
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait_us = 0;
  cfg.admission.enabled = true;
  cfg.admission.target_wait_us = 50;    // queue waits behind the pin are ms-scale
  cfg.admission.interval_us = 500;
  serve::InferenceEngine engine(cfg, f.weights());

  std::vector<std::future<nt::Tensor>> accepted;
  accepted.push_back(engine.submit(f.input(2048)));  // the standing backlog
  serve::SubmitOptions batch_opts;
  batch_opts.priority = serve::Priority::kBatch;
  for (int i = 0; i < 40; ++i) {
    accepted.push_back(engine.submit(f.input(2), batch_opts));
  }

  // The backlog drains slowly; every pop behind the pin records a wait far
  // past target, so within the interval the controller starts shedding
  // kBatch. Keep probing until a shed happens (bounded by the deadline).
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  std::uint64_t shed_count = 0;
  while (shed_count == 0 && Clock::now() < give_up) {
    try {
      accepted.push_back(engine.submit(f.input(1), batch_opts));
    } catch (const serve::RequestShedError&) {
      ++shed_count;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(shed_count, 1u) << "admission control never engaged under a standing backlog";

  // Interactive traffic is still admitted at any overload level (a full
  // queue is the only thing that refuses it).
  serve::SubmitOptions interactive;
  interactive.priority = serve::Priority::kInteractive;
  accepted.push_back(engine.submit(f.input(1), interactive));

  engine.shutdown();
  for (auto& fut : accepted) {
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NO_THROW((void)fut.get());  // accepted work is never dropped
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.shed, shed_count);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GT(stats.queue_wait_p99_us, 0.0);  // the backlog shows in the histogram
  EXPECT_GE(stats.queue_wait_p99_us, stats.queue_wait_p50_us);
}

TEST(Overload, SubmitAfterShutdownThrowsTypedEngineStoppedError) {
  OverloadFixture f;
  serve::InferenceEngine engine(f.config(1, 8), f.weights());
  engine.shutdown();
  EXPECT_THROW((void)engine.submit(f.input(1)), serve::EngineStoppedError);
}

TEST(Overload, ConfigValidationMessagesAreTyped) {
  OverloadFixture f;
  serve::EngineConfig cfg = f.config(1, 0);  // queue_capacity = 0
  EXPECT_THROW(serve::InferenceEngine(cfg, f.weights()), std::invalid_argument);
  cfg = f.config(1, 8);
  cfg.breaker.cooldown_multiplier = 0.0;
  EXPECT_THROW(serve::InferenceEngine(cfg, f.weights()), std::invalid_argument);
  cfg = f.config(1, 8);
  cfg.admission.enabled = true;
  cfg.admission.interval_us = 0;
  EXPECT_THROW(serve::InferenceEngine(cfg, f.weights()), std::invalid_argument);
}
