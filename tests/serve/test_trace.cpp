// Differential timeline tests for observability v2: every request that goes
// through the engine must leave a complete, ordered flight-recorder timeline
// — across batch split/merge, retry, worker crash + requeue, and shed — and
// the same identity must be traceable in the Chrome trace via flow events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "nodetr/fault/fault.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace serve = nodetr::serve;
namespace fault = nodetr::fault;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace obs = nodetr::obs;
namespace fx = nodetr::fx;
using nt::index_t;

namespace {

/// Position of the first event of `kind` in a ts-ordered timeline, or -1.
int index_of(const std::vector<obs::FlightEvent>& tl, obs::FlightKind kind) {
  for (std::size_t i = 0; i < tl.size(); ++i) {
    if (tl[i].kind == kind) return static_cast<int>(i);
  }
  return -1;
}

int count_of(const std::vector<obs::FlightEvent>& tl, obs::FlightKind kind) {
  return static_cast<int>(std::count_if(tl.begin(), tl.end(), [&](const obs::FlightEvent& e) {
    return e.kind == kind;
  }));
}

/// Asserts the canonical happy-path order: submit -> enqueued -> dequeued ->
/// batch-join -> exec-begin -> exec-end -> completed. Extra events (retries,
/// carries) may interleave; the canonical ones must exist and be ordered.
void expect_complete_timeline(const std::vector<obs::FlightEvent>& tl, std::uint64_t id) {
  const int submit = index_of(tl, obs::FlightKind::kSubmit);
  const int enq = index_of(tl, obs::FlightKind::kEnqueued);
  const int deq = index_of(tl, obs::FlightKind::kDequeued);
  const int join = index_of(tl, obs::FlightKind::kBatchJoin);
  const int begin = index_of(tl, obs::FlightKind::kExecBegin);
  const int end = index_of(tl, obs::FlightKind::kExecEnd);
  const int done = index_of(tl, obs::FlightKind::kCompleted);
  EXPECT_GE(submit, 0) << "trace " << id << " missing kSubmit";
  EXPECT_GT(enq, submit) << "trace " << id;
  // kEnqueued is recorded by the submitter after push() returns, so a fast
  // worker may record kDequeued first — both are ordered against kSubmit,
  // not against each other.
  EXPECT_GT(deq, submit) << "trace " << id;
  EXPECT_GT(join, deq) << "trace " << id;
  EXPECT_GT(begin, join) << "trace " << id;
  EXPECT_GT(end, begin) << "trace " << id;
  EXPECT_GT(done, end) << "trace " << id;
  // Timeline events all carry the queried id and are ts-ordered.
  for (const auto& e : tl) EXPECT_EQ(e.trace_id, id);
  for (std::size_t i = 1; i < tl.size(); ++i) EXPECT_LE(tl[i - 1].ts_ns, tl[i].ts_ns);
}

/// Rows of a request that pins the single worker while a test floods the
/// queue behind it: at max_batch 2 that is 512 micro-batches, far longer
/// than the submit loop, however fast the float kernels run.
constexpr index_t kPinRows = 1024;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& inj = fault::Injector::instance();
    inj.reset();
    inj.seed(0x5eedf417u);
    obs::FlightRecorder::instance().clear();
    obs::FlightRecorder::instance().set_enabled(true);
    cfg_.dim = 16;
    cfg_.heads = 2;
    cfg_.height = 4;
    cfg_.width = 4;
    mhsa_ = std::make_unique<nn::MultiHeadSelfAttention>(cfg_, rng_);
    mhsa_->train(false);
    point_.dim = cfg_.dim;
    point_.height = cfg_.height;
    point_.width = cfg_.width;
    point_.heads = cfg_.heads;
    point_.scheme = fx::scheme_32_24();
  }

  void TearDown() override {
    fault::Injector::instance().reset();
    obs::FlightRecorder::instance().set_dump_path("");
    obs::FlightRecorder::instance().clear();
  }

  [[nodiscard]] hls::MhsaWeights weights() { return hls::MhsaWeights::from_module(*mhsa_); }

  [[nodiscard]] serve::EngineConfig config(serve::Backend backend, std::size_t workers = 1) {
    serve::EngineConfig c;
    c.point = point_;
    c.backend = backend;
    c.workers = workers;
    c.queue_capacity = 64;
    c.fault.backoff_us = 10;
    c.fault.max_backoff_us = 100;
    return c;
  }

  [[nodiscard]] nt::Tensor input(index_t rows = 1) {
    return rng_.rand(nt::Shape{rows, point_.dim, point_.height, point_.width});
  }

  nt::Rng rng_{7};
  nn::MhsaConfig cfg_;
  std::unique_ptr<nn::MultiHeadSelfAttention> mhsa_;
  hls::MhsaDesignPoint point_;
};

}  // namespace

// Every request leaves the full submit→…→completed chain, with no event
// borrowed from a neighbouring request (differential: N requests in flight).
TEST_F(TraceTest, EveryRequestTimelineCompleteAndOrdered) {
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat, 2), weights());
  constexpr int kRequests = 12;
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    serve::SubmitOptions opts;
    opts.trace_id = 1000 + static_cast<std::uint64_t>(i);
    futures.push_back(engine.submit(input(), opts));
  }
  for (auto& f : futures) (void)f.get();
  engine.shutdown();  // quiesce workers before reading the rings

  auto& flight = obs::FlightRecorder::instance();
  for (int i = 0; i < kRequests; ++i) {
    const std::uint64_t id = 1000 + static_cast<std::uint64_t>(i);
    expect_complete_timeline(flight.events_for(id), id);
  }
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.slo.window_completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.slo.goodput, 1.0);
  EXPECT_FALSE(stats.slo.breached());
}

// A request wider than max_batch is split across micro-batches: its timeline
// must show the carry and *multiple* batch joins, yet exactly one completion.
TEST_F(TraceTest, SplitRequestCarriesAcrossBatchesOnce) {
  serve::EngineConfig c = config(serve::Backend::kCpuFloat, 1);
  c.batcher.max_batch = 2;
  c.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(c, weights());
  serve::SubmitOptions opts;
  opts.trace_id = 7001;
  auto f = engine.submit(input(/*rows=*/5), opts);  // 5 rows over batches of 2
  (void)f.get();
  engine.shutdown();

  const auto tl = obs::FlightRecorder::instance().events_for(7001);
  expect_complete_timeline(tl, 7001);
  EXPECT_GE(count_of(tl, obs::FlightKind::kCarried), 2);   // 5 rows = 3 batches
  EXPECT_GE(count_of(tl, obs::FlightKind::kBatchJoin), 3);
  EXPECT_EQ(count_of(tl, obs::FlightKind::kCompleted), 1);
}

// A transient device fault shows up as kRetry between exec-begin events, and
// the request still completes.
TEST_F(TraceTest, RetryEventsRecordedOnTransientFault) {
  fault::Injector::instance().arm("rt.dma.error", fault::Schedule::once(0));
  serve::InferenceEngine engine(config(serve::Backend::kFpgaFloat, 1), weights());
  serve::SubmitOptions opts;
  opts.trace_id = 7010;
  auto f = engine.submit(input(), opts);
  (void)f.get();
  engine.shutdown();

  const auto tl = obs::FlightRecorder::instance().events_for(7010);
  expect_complete_timeline(tl, 7010);
  EXPECT_GE(count_of(tl, obs::FlightKind::kRetry), 1);
  EXPECT_GE(count_of(tl, obs::FlightKind::kExecBegin), 2);  // failed + retried
}

// A worker crash requeues untouched requests (kRequeued) and auto-dumps the
// merged timeline; the dump file must contain the crashed request's trace.
TEST_F(TraceTest, WorkerCrashDumpContainsRequeuedTimeline) {
  const std::string dump_path = ::testing::TempDir() + "nodetr_flight_crash.txt";
  std::remove(dump_path.c_str());
  auto& flight = obs::FlightRecorder::instance();
  flight.set_dump_path(dump_path);
  const std::uint64_t dumps_before = flight.dump_count();

  fault::Injector::instance().arm("serve.worker_crash", fault::Schedule::once(0));
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat, 1), weights());
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < 6; ++i) {
    serve::SubmitOptions opts;
    opts.trace_id = 7100 + static_cast<std::uint64_t>(i);
    futures.push_back(engine.submit(input(), opts));
  }
  for (auto& f : futures) (void)f.get();  // crash is between batches: all served
  engine.shutdown();

  EXPECT_GE(engine.stats().respawns, 1u);
  EXPECT_GT(flight.dump_count(), dumps_before);
  // At least one request was salvaged back into the queue...
  int requeued = 0;
  for (int i = 0; i < 6; ++i) {
    const auto tl = flight.events_for(7100 + static_cast<std::uint64_t>(i));
    expect_complete_timeline(tl, 7100 + static_cast<std::uint64_t>(i));
    requeued += count_of(tl, obs::FlightKind::kRequeued) > 0 ? 1 : 0;
  }
  EXPECT_GE(requeued, 1);
  // ...and the on-disk dump names the crash and carries our trace ids.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << dump_path;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("worker_crash"), std::string::npos);
  EXPECT_NE(text.find("7100"), std::string::npos);
  std::remove(dump_path.c_str());
}

// Queue-full rejection is visible as kRejected; the id never reaches exec.
TEST_F(TraceTest, RejectedRequestLeavesRejectedEvent) {
  serve::EngineConfig c = config(serve::Backend::kCpuFloat, 1);
  c.policy = serve::BackpressurePolicy::kReject;
  c.queue_capacity = 1;
  c.batcher.max_batch = 2;
  serve::InferenceEngine engine(c, weights());
  std::vector<std::future<nt::Tensor>> futures;
  // A pin request keeps the single worker busy for hundreds of micro-batches;
  // once the worker has taken it, the capacity-1 queue must overflow for one
  // of the singles submitted behind it.
  futures.push_back(engine.submit(input(kPinRows)));
  while (engine.stats().batches == 0) std::this_thread::yield();
  bool saw_reject = false;
  for (int i = 0; i < 8 && !saw_reject; ++i) {
    serve::SubmitOptions opts;
    opts.trace_id = 7200 + static_cast<std::uint64_t>(i);
    try {
      futures.push_back(engine.submit(input(), opts));
    } catch (const serve::QueueFullError&) {
      saw_reject = true;
      const auto tl = obs::FlightRecorder::instance().events_for(opts.trace_id);
      EXPECT_GE(index_of(tl, obs::FlightKind::kRejected), 0);
      EXPECT_EQ(index_of(tl, obs::FlightKind::kExecBegin), -1);
    }
  }
  engine.shutdown();
  for (auto& f : futures) (void)f.get();
  EXPECT_TRUE(saw_reject);
}

// The same identity is visible in the Chrome trace as s/t/f flow events, so
// Perfetto can draw one request as a clickable arrow chain.
TEST_F(TraceTest, FlowEventsLinkSubmitToCompletion) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  serve::InferenceEngine engine(config(serve::Backend::kCpuFloat, 1), weights());
  serve::SubmitOptions opts;
  opts.trace_id = 7300;
  (void)engine.submit(input(), opts).get();
  engine.shutdown();
  tracer.set_enabled(false);

  const auto flows = tracer.flow_snapshot();
  int starts = 0, steps = 0, ends = 0;
  for (const auto& f : flows) {
    if (f.id != 7300) continue;
    starts += f.phase == 's' ? 1 : 0;
    steps += f.phase == 't' ? 1 : 0;
    ends += f.phase == 'f' ? 1 : 0;
  }
  EXPECT_EQ(starts, 1);
  EXPECT_GE(steps, 1);
  EXPECT_EQ(ends, 1);
  // And the exported JSON carries the flow phases with the binding flag.
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":7300"), std::string::npos);
  tracer.clear();
}

// Device counters surface per backend in stats(): DMA traffic, stall cycles
// (via an injected IP stall), weight bytes saved by batch residency.
TEST_F(TraceTest, DeviceCountersSurfaceInStats) {
  serve::EngineConfig c = config(serve::Backend::kFpgaFixed, 1);
  c.batcher.max_batch = 4;
  c.batcher.max_wait_us = 20'000;  // linger long enough to form real batches
  serve::InferenceEngine engine(c, weights());
  std::vector<std::future<nt::Tensor>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(engine.submit(input(2)));
  for (auto& f : futures) (void)f.get();
  engine.shutdown();

  const serve::EngineStats stats = engine.stats();
  ASSERT_EQ(stats.devices.count("fpga_fixed"), 1u);
  const auto& d = stats.devices.at("fpga_fixed");
  EXPECT_GT(d.starts, 0u);
  EXPECT_GT(d.dma_bytes_in, 0u);
  EXPECT_GT(d.dma_bytes_out, 0u);
  EXPECT_GT(d.weight_bytes_saved, 0u);  // multi-row batches keep weights resident
  EXPECT_GT(d.compute_cycles, 0u);
  EXPECT_GT(d.utilization_pct(), 0.0);
  EXPECT_LE(d.utilization_pct(), 100.0);
}

TEST_F(TraceTest, StallCyclesAccountedOnDeadline) {
  serve::EngineConfig c = config(serve::Backend::kFpgaFloat, 1);
  fault::Injector::instance().arm("hls.ip.stall", fault::Schedule::once(0));
  serve::InferenceEngine engine(c, weights());
  (void)engine.submit(input()).get();  // stall -> deadline -> retry succeeds
  engine.shutdown();

  const serve::EngineStats stats = engine.stats();
  ASSERT_EQ(stats.devices.count("fpga_float"), 1u);
  EXPECT_GT(stats.devices.at("fpga_float").stall_cycles, 0u);
  EXPECT_GT(stats.devices.at("fpga_float").stalls, 0u);
}

// Shed-at-admission requests are recorded in both the flight ring and the
// SLO window, and never reach the execution stage.
TEST_F(TraceTest, ShedOldestLeavesShedTimelineAndSloSample) {
  serve::EngineConfig c = config(serve::Backend::kCpuFloat, 1);
  c.policy = serve::BackpressurePolicy::kShedOldest;
  c.queue_capacity = 2;
  c.batcher.max_batch = 2;
  serve::InferenceEngine engine(c, weights());
  std::vector<std::future<nt::Tensor>> futures;
  // Occupy the worker with a pin request, then, once the worker has taken
  // it, flood the capacity-2 queue: the kShedOldest policy must evict queued
  // requests to admit newer ones.
  futures.push_back(engine.submit(input(kPinRows)));
  while (engine.stats().batches == 0) std::this_thread::yield();
  for (int i = 0; i < 24; ++i) {
    serve::SubmitOptions opts;
    opts.trace_id = 7400 + static_cast<std::uint64_t>(i);
    futures.push_back(engine.submit(input(), opts));
  }
  engine.shutdown();
  std::uint64_t shed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const serve::RequestShedError&) {
      ++shed;
    }
  }
  ASSERT_GT(shed, 0u);
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.slo.window_shed, shed);
  EXPECT_LT(stats.slo.goodput, 1.0);
  // A shed request's timeline ends at kShed with no exec events.
  auto& flight = obs::FlightRecorder::instance();
  bool checked = false;
  for (int i = 0; i < 24 && !checked; ++i) {
    const auto tl = flight.events_for(7400 + static_cast<std::uint64_t>(i));
    if (count_of(tl, obs::FlightKind::kShed) == 0) continue;
    EXPECT_EQ(index_of(tl, obs::FlightKind::kExecBegin), -1)
        << "shed request 7400+" << i << " still executed";
    EXPECT_EQ(index_of(tl, obs::FlightKind::kCompleted), -1);
    checked = true;
  }
  EXPECT_TRUE(checked);
}
