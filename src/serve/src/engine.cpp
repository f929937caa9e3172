#include "nodetr/serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "nodetr/fault/fault.hpp"
#include "nodetr/hls/cycle_model.hpp"
#include "nodetr/tensor/tune.hpp"

namespace nodetr::serve {

namespace obs = nodetr::obs;

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kCpuFloat: return "cpu_float";
    case Backend::kCpuQuant: return "cpu_quant";
    case Backend::kFpgaFloat: return "fpga_float";
    case Backend::kFpgaFixed: return "fpga_fixed";
  }
  return "?";
}

namespace {

/// Pre-resolved serve.version.<id>.{batches,rows} counters, so a batch adds
/// to its version's counters without a registry lookup.
struct VersionCounters {
  obs::Counter* batches = nullptr;
  obs::Counter* rows = nullptr;

  VersionCounters() = default;
  explicit VersionCounters(std::uint64_t id) {
    auto& reg = obs::Registry::instance();
    const std::string prefix = "serve.version." + std::to_string(id) + ".";
    batches = &reg.counter(prefix + "batches");
    rows = &reg.counter(prefix + "rows");
  }
};

}  // namespace

/// One worker's private execution state: a warm IP replica, and for FPGA
/// backends the board itself — its own DDR + accelerator — so sessions never
/// contend on a device. `backend` is where traffic runs right now;
/// `home_backend` is the board's — the circuit breaker demotes `backend` to
/// kCpuFloat when the device keeps faulting and restores it after a clean
/// half-open probe. In cluster mode the worker drains its own device queue.
struct InferenceEngine::WorkerSession {
  std::size_t index = 0;  ///< worker slot = board index (stable across respawns)
  Backend home_backend = Backend::kCpuFloat;
  Backend backend = Backend::kCpuFloat;
  RequestQueue* source = nullptr;  ///< queue this session drains
  MicroBatcher batcher;
  std::unique_ptr<hls::MhsaIpCore> cpu_ip;     ///< kCpuFloat (built on demand)
  std::unique_ptr<rt::DdrMemory> ddr;          ///< kFpga*: the board's DDR
  std::unique_ptr<rt::MhsaAccelerator> accel;  ///< kFpga* (kept alive while open
                                               ///  so the probe can reuse it)
  CircuitBreaker breaker;
  // ── Hot-swap staging (worker-thread-only, mutated at batch boundaries) ──
  std::shared_ptr<const ModelVersion> staged_version;  ///< what the datapaths serve
  VersionCounters staged_counters;                     ///< staged_version's counters
  std::uint64_t staged_epoch = 0;  ///< swap_epoch_ this staging reflects (0 = stale)
  std::shared_ptr<const ModelVersion> canary_version;  ///< staged candidate, if any
  VersionCounters canary_counters;                     ///< canary_version's counters
  std::unique_ptr<hls::MhsaIpCore> canary_ip;  ///< candidate replica (canary batches)
  std::unique_ptr<hls::MhsaIpCore> shadow_ip;  ///< active-version baseline (shadow scoring)

  WorkerSession(RequestQueue& queue, const BatcherConfig& cfg,
                MicroBatcher::ExpiredHandler on_expired, const BreakerConfig& breaker_cfg)
      : source(&queue), batcher(queue, cfg, std::move(on_expired)), breaker(breaker_cfg) {}
};

std::vector<DeviceConfig> InferenceEngine::validated(EngineConfig& config) {
  if (!config.devices.empty()) config.workers = config.devices.size();
  if (config.workers < 1) {
    throw std::invalid_argument("InferenceEngine: workers must be >= 1");
  }
  if (config.queue_capacity < 1) {
    throw std::invalid_argument("InferenceEngine: queue_capacity must be >= 1");
  }
  if (config.fault.max_retries < 0 || config.fault.backoff_us < 0 ||
      config.fault.max_backoff_us < 0) {
    throw std::invalid_argument(
        "InferenceEngine: invalid FaultPolicy (retries/backoffs must be >= 0)");
  }
  // Admission, breaker, batcher and hot-swap configs are validated by their
  // own constructors; trigger the breaker's here so a bad config fails the
  // engine constructor instead of the first worker session.
  (void)CircuitBreaker(config.breaker);
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    if (config.devices[i].name.empty()) config.devices[i].name = "dev" + std::to_string(i);
  }
  std::vector<DeviceConfig> boards = config.devices;
  for (std::size_t i = boards.size(); i < config.workers; ++i) {
    DeviceConfig d;
    d.name = "dev" + std::to_string(i);
    d.backend = config.backend;
    boards.push_back(std::move(d));
  }
  // Board names key both the per-board metrics and the fault scopes.
  std::set<std::string> names;
  for (const DeviceConfig& d : boards) {
    if (!names.insert(d.name).second) {
      throw std::invalid_argument("InferenceEngine: duplicate device name \"" + d.name +
                                  "\" (names key metrics and fault scopes)");
    }
    if (d.clock_mhz <= 0.0) {
      throw std::invalid_argument("InferenceEngine: device \"" + d.name +
                                  "\": clock_mhz must be > 0");
    }
  }
  return boards;
}

std::unique_ptr<InferenceEngine::WorkerSession> InferenceEngine::make_session(
    std::size_t worker) {
  // Building a session can fail (memory pressure while building the IP); the
  // "serve.respawn" site makes that failure injectable. Bring-up runs through
  // here too, so the site armed before construction fails the constructor.
  if (fault::fire("serve.respawn")) throw fault::AllocationFault("serve.respawn");
  const DeviceConfig& board = boards_[worker];
  RequestQueue& source = device_queues_.empty() ? queue_ : *device_queues_[worker];
  // Expired requests are failed the moment the batcher sheds them.
  auto session = std::make_unique<WorkerSession>(
      source, config_.batcher, [this](RequestPtr r) { fail_expired(*r); }, config_.breaker);
  session->index = worker;
  session->home_backend = board.backend;
  session->backend = board.backend;
  // One version snapshot builds the board's IP and is recorded as staged, so
  // the two cannot disagree even if a commit lands meanwhile.
  std::shared_ptr<const ModelVersion> ver = swap_.versions().active;
  auto ip = build_ip(board.backend, *ver);
  if (is_cpu(board.backend)) {
    session->cpu_ip = std::move(ip);
  } else {
    session->ddr = std::make_unique<rt::DdrMemory>();
    session->ddr->set_fault_scope(board.name);
    session->accel = std::make_unique<rt::MhsaAccelerator>(
        std::move(ip), *session->ddr,
        rt::BoardProfile{.clock_mhz = board.clock_mhz, .fault_scope = board.name});
    session->accel->set_deadline(config_.fault.deadline);
  }
  session->staged_counters = VersionCounters(ver->id);
  session->staged_version = std::move(ver);
  // staged_epoch 0 forces a sync at the first batch boundary: a respawn that
  // lands mid-canary stages the canary/shadow replicas before serving.
  session->staged_epoch = 0;
  return session;
}

hls::MhsaDesignPoint InferenceEngine::datapath_point(Backend backend) const {
  hls::MhsaDesignPoint point = config_.point;
  point.dtype = backend == Backend::kFpgaFixed || backend == Backend::kCpuQuant
                    ? hls::DataType::kFixed
                    : hls::DataType::kFloat32;
  if (backend == Backend::kCpuQuant && point.wire == hls::WeightWire::kWord32) {
    // Quantized serving means quantized weights: default the wire to int8
    // blocks so the replica computes on exactly the block-degraded weights a
    // quantized checkpoint (or DDR image) would carry. A config that already
    // picked a wire (int4, other block size) is respected.
    point.wire = hls::WeightWire::kBlockInt8;
  }
  if (!is_cpu(backend)) {
    // The batched START keeps weights resident across the programmed batch —
    // the amortization the micro-batcher exists to exploit.
    point.residency = hls::WeightResidency::kBatchResident;
  }
  return point;
}

std::unique_ptr<hls::MhsaIpCore> InferenceEngine::build_ip(Backend backend,
                                                           const ModelVersion& version) const {
  return std::make_unique<hls::MhsaIpCore>(datapath_point(backend), version.weights);
}

InferenceEngine::InferenceEngine(EngineConfig config, const hls::MhsaWeights& weights)
    : config_(std::move(config)),
      boards_(validated(config_)),
      registry_(config_.point, weights),
      queue_(config_.queue_capacity, config_.policy),
      admission_(config_.admission),
      slo_(config_.slo),
      swap_(config_.hot_swap, registry_, slo_) {
  // Resolve the GEMM kernel/blocking now: first use probes the caches, which
  // is charged to engine startup, never to the first request's deadline.
  (void)tensor::tune::gemm_config();
  // Every pop reports its queue wait: the engine-local histogram backs the
  // stats() percentiles, the registry one the metrics dump, and the sample
  // stream drives the CoDel admission controller.
  auto wait_observer = [this](std::int64_t wait_us) {
    static auto& wait_hist = obs::Registry::instance().histogram("serve.queue_wait_us");
    queue_wait_us_.observe(static_cast<double>(wait_us));
    wait_hist.observe(static_cast<double>(wait_us));
    admission_.record_wait(wait_us);
  };
  if (config_.devices.empty()) {
    queue_.set_wait_observer(wait_observer);
  } else {
    // Cluster mode: only the device-queue pops feed the observer. Their wait
    // is still measured from submit (the device pop overwrites the router's
    // central-pop stamp), so CoDel keys on the full standing delay — wiring
    // the central queue too would flood it with the router's near-zero
    // drain latency and mask real overload.
    std::vector<ClusterRouter::DeviceSeed> seeds;
    const hls::CycleModel cycle_model;
    for (const DeviceConfig& d : boards_) {
      // The router blocks when a device queue is full, so the cost model
      // (not the queues) does the load balancing.
      auto q = std::make_unique<RequestQueue>(config_.queue_capacity, BackpressurePolicy::kBlock);
      q->set_wait_observer(wait_observer);
      device_queues_.push_back(std::move(q));
      // Seed the router's cost model with the analytic cycle estimate paid at
      // this board's clock (µs = cycles ÷ MHz). CPU boards start from the
      // same figure and converge to wall time through the EWMA.
      const double est_us_per_row =
          static_cast<double>(cycle_model.estimate(datapath_point(d.backend)).total()) /
          d.clock_mhz;
      seeds.push_back(ClusterRouter::DeviceSeed{d.name, est_us_per_row});
    }
    router_ = std::make_unique<ClusterRouter>(std::move(seeds));
  }
  device_stats_.resize(boards_.size());
  device_metrics_.reserve(boards_.size());
  auto& reg = obs::Registry::instance();
  for (std::size_t i = 0; i < boards_.size(); ++i) {
    device_stats_[i].backend = to_string(boards_[i].backend);
    const std::string prefix = "serve.device." + boards_[i].name + ".";
    DeviceMetrics m;
    if (router_) m.routed = &reg.counter(prefix + "routed");
    m.batches = &reg.counter(prefix + "batches");
    m.rows = &reg.counter(prefix + "rows");
    m.breaker_opens = &reg.counter(prefix + "breaker_opens");
    m.breaker_probes = &reg.counter(prefix + "breaker_probes");
    m.breaker_reopens = &reg.counter(prefix + "breaker_reopens");
    m.breaker_closes = &reg.counter(prefix + "breaker_closes");
    m.breaker_open = &reg.gauge(prefix + "breaker_open");
    device_metrics_.push_back(m);
  }
  sessions_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) sessions_.push_back(make_session(w));
  // Worker loops ride on a private ThreadPool: the dispatcher thread posts
  // one long-lived chunk per session and participates itself, leaving the
  // global pool free for the kernels' parallel_for calls.
  pool_ = std::make_unique<tensor::ThreadPool>(config_.workers);
  dispatcher_ = std::thread([this] {
    pool_->run_chunks(config_.workers, [this](std::size_t w) { worker_loop(w); });
  });
  if (router_) router_thread_ = std::thread([this] { router_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::future<Tensor> InferenceEngine::submit(Tensor input, SubmitOptions opts) {
  obs::ScopedSpan span("serve.submit");
  if (stopped_.load(std::memory_order_relaxed)) {
    throw EngineStoppedError("InferenceEngine::submit: engine is shut down");
  }
  if (opts.ttl_us < 0) {
    throw std::invalid_argument("InferenceEngine::submit: ttl_us must be >= 0");
  }
  bool squeeze = false;
  if (input.rank() == 3) {
    const Shape s = input.shape();
    input.reshape_inplace(Shape{1, s.dim(0), s.dim(1), s.dim(2)});
    squeeze = true;
  }
  if (input.rank() != 4 || input.dim(1) != config_.point.dim ||
      input.dim(2) != config_.point.height || input.dim(3) != config_.point.width) {
    throw std::invalid_argument("InferenceEngine::submit: input does not match design point " +
                                config_.point.to_string());
  }
  const auto now = std::chrono::steady_clock::now();
  auto request = std::make_shared<Request>();
  request->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request->trace_id = opts.trace_id != 0 ? opts.trace_id : obs::new_trace_id();
  request->input = std::move(input);
  request->squeeze = squeeze;
  request->enqueued_at = now;
  request->priority = opts.priority;
  if (opts.deadline != std::chrono::steady_clock::time_point{}) {
    request->deadline = opts.deadline;
  } else if (opts.ttl_us > 0) {
    request->deadline = now + std::chrono::microseconds(opts.ttl_us);
  }
  auto future = request->promise.get_future();
  span.attr("rows", request->input.dim(0));
  span.attr("priority", to_string(opts.priority));
  span.attr("trace_id", static_cast<std::int64_t>(request->trace_id));
  // First point of the request's flow chain, bound to this serve.submit span;
  // first flight-recorder milestone.
  obs::flow_start(request->trace_id);
  obs::flight_event(request->trace_id, obs::FlightKind::kSubmit, request->input.dim(0),
                    static_cast<std::int64_t>(opts.priority));
  if (request->input.dim(0) == 0) {
    // Nothing to compute; resolve immediately without occupying the queue.
    request->promise.set_value(Tensor(request->input.shape()));
    submitted_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    return future;
  }
  static auto& submitted = obs::Registry::instance().counter("serve.requests_submitted");
  static auto& rejected = obs::Registry::instance().counter("serve.requests_rejected");
  static auto& shed = obs::Registry::instance().counter("serve.shed");
  static auto& expired = obs::Registry::instance().counter("serve.expired");
  static auto& depth_gauge = obs::Registry::instance().gauge("serve.queue_depth");
  // Deadline enforcement at admission: work that is already stale is refused
  // before it can occupy a queue slot.
  if (request->expired(now)) {
    expired_.fetch_add(1, std::memory_order_relaxed);
    expired.add();
    obs::flight_event(request->trace_id, obs::FlightKind::kExpired, 0);
    slo_.record(SloMonitor::Outcome::kExpired);
    throw RequestExpired("InferenceEngine::submit: request " + std::to_string(request->id) +
                         " deadline already passed at admission");
  }
  // Admission control: when the standing queue delay is past target, shed
  // lowest-priority first instead of queueing work that will expire anyway.
  // The "serve.overload.shed" site forces this on a deterministic schedule.
  // In cluster mode the standing queue is the central queue PLUS everything
  // routed but not yet resolved, so buffered device queues can't hide depth.
  const std::size_t standing_depth =
      queue_.size() +
      (router_ ? static_cast<std::size_t>(router_->pending_requests_total()) : 0);
  if (fault::fire("serve.overload.shed") ||
      !admission_.admit(opts.priority, standing_depth)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed.add();
    obs::flight_event(request->trace_id, obs::FlightKind::kShed, 0);
    slo_.record(SloMonitor::Outcome::kShed);
    throw RequestShedError("InferenceEngine::submit: shed at admission, priority " +
                           std::string(to_string(opts.priority)) + " (overload level " +
                           std::to_string(admission_.overload_level()) + ")");
  }
  const std::uint64_t trace_id = request->trace_id;
  RequestPtr victim;  // kShedOldest: the queued request evicted to admit this one
  switch (queue_.push(std::move(request), &victim)) {
    case PushResult::kOk:
      submitted_.fetch_add(1, std::memory_order_relaxed);
      submitted.add();
      depth_gauge.set(static_cast<double>(queue_.size()));
      obs::flight_event(trace_id, obs::FlightKind::kEnqueued,
                        static_cast<std::int64_t>(queue_.size()));
      if (victim) fail_shed(*victim);
      return future;
    case PushResult::kFull:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected.add();
      obs::flight_event(trace_id, obs::FlightKind::kRejected,
                        static_cast<std::int64_t>(queue_.capacity()));
      throw QueueFullError("InferenceEngine::submit: queue at capacity (" +
                           std::to_string(queue_.capacity()) + ")");
    case PushResult::kClosed:
    default:
      throw EngineStoppedError("InferenceEngine::submit: engine is shut down");
  }
}

void InferenceEngine::router_loop() {
  // Single consumer of the central queue: strict FIFO pops here plus FIFO
  // device queues is what makes per-client ordering hold per device — two
  // requests routed to the same board always execute in submission order.
  while (RequestPtr r = queue_.pop()) {
    const index_t rows = r->input.dim(0);
    const std::size_t d = router_->pick(rows);
    r->routed_device = static_cast<int>(d);
    router_->on_dispatch(d, rows);
    {
      // One flow hop between serve.submit and serve.batch: the request's
      // Perfetto arrow chain gains a named routing slice.
      obs::ScopedSpan span("serve.route");
      span.attr("device", static_cast<std::int64_t>(d));
      span.attr("rows", rows);
      span.attr("trace_id", static_cast<std::int64_t>(r->trace_id));
      obs::flow_step(r->trace_id);
    }
    obs::flight_event(r->trace_id, obs::FlightKind::kRouted, static_cast<std::int64_t>(d),
                      rows);
    device_metrics_[d].routed->add();
    // push() consumes the pointer; keep a reference so the shutdown race
    // (device queue closed between pick and push) still resolves the future.
    RequestPtr kept = r;
    if (device_queues_[d]->push(std::move(r)) == PushResult::kClosed) {
      fail_request(*kept, std::make_exception_ptr(EngineStoppedError(
                              "request " + std::to_string(kept->id) +
                              " dropped: device queue closed during shutdown")));
    }
  }
  // Central queue closed and drained: close the device queues so the workers
  // drain what's left and exit.
  for (auto& q : device_queues_) q->close();
}

void InferenceEngine::abandon_device(std::size_t worker) {
  // The worker slot could not be respawned. A cluster board's queue has no
  // other consumer, and neither has a flat engine's shared queue once its
  // last worker is gone: mark the board permanently unroutable or count the
  // loss, then close the queue and fail everything still on it, so accepted
  // futures do not hang and a flat engine's later submits throw.
  RequestQueue* q = &queue_;
  std::string why = "engine lost its last worker";
  if (router_) {
    router_->on_device_lost(worker);
    q = device_queues_[worker].get();
    why = "device " + router_->name(worker) + " lost";
  } else if (lost_workers_.fetch_add(1) + 1 < sessions_.size()) {
    return;  // the surviving workers keep draining the shared queue
  }
  q->close();
  const auto error = std::make_exception_ptr(EngineStoppedError(why + ": worker respawn failed"));
  while (RequestPtr r = q->try_pop()) {
    fail_request(*r, error);
  }
}

void InferenceEngine::note_resolved(const Request& r) {
  if (router_ && r.routed_device >= 0) {
    router_->on_resolved(static_cast<std::size_t>(r.routed_device), r.input.dim(0));
  }
}

void InferenceEngine::worker_loop(std::size_t worker) {
  // Supervision loop: a session that dies outside the per-batch guard
  // (batch-assembly allocation failure, injected crash) is salvaged — its
  // in-flight rows fail, untouched requests go back to the queue — and the
  // session is respawned, so a crash never strands a future or kills the
  // worker slot. The loop only returns once the queue is closed and drained.
  for (;;) {
    WorkerSession& session = *sessions_[worker];
    MicroBatch batch;
    try {
      while (session.batcher.next(batch)) {
        if (fault::fire("serve.worker_crash")) {
          throw fault::WorkerCrashFault("serve.worker_crash");
        }
        obs::ScopedSpan span("serve.batch");
        span.attr("worker", static_cast<std::int64_t>(worker));
        span.attr("backend", to_string(session.backend));
        span.attr("rows", batch.rows());
        span.attr("requests", static_cast<std::int64_t>(batch.slices.size()));
        process_batch(session, batch);
        batch = MicroBatch{};  // drop request refs so salvage never re-sees them
        static auto& depth = obs::Registry::instance().gauge("serve.queue_depth");
        depth.set(static_cast<double>(queue_.size()));
      }
      return;  // closed and drained
    } catch (...) {
      obs::Registry::instance().counter("serve.worker_aborted").add();
      obs::flight_event(0, obs::FlightKind::kWorkerCrash, static_cast<std::int64_t>(worker));
      // Everything this worker held when it died: the assembled batch (crash
      // between batches), requests a failed next() parked as orphans, and
      // the worker-local carry.
      std::vector<RequestPtr> held;
      for (const BatchSlice& slice : batch.slices) held.push_back(slice.request);
      for (RequestPtr& r : session.batcher.take_orphans()) held.push_back(std::move(r));
      if (RequestPtr carry = session.batcher.take_carry()) held.push_back(std::move(carry));
      salvage_requests(*session.source, held, std::current_exception());
      // Salvage first, then dump: the crashed requests' requeue/fail events
      // belong in the artifact. The dying session's device counters must not
      // vanish with it.
      absorb_device_counters(session);
      obs::FlightRecorder::instance().dump("worker_crash");
      try {
        sessions_[worker] = make_session(worker);
      } catch (...) {
        // Respawn itself failed (e.g. out of memory building the IP). Give
        // up this worker slot; the salvage above already resolved or
        // requeued everything this worker held.
        obs::Registry::instance().counter("serve.worker_lost").add();
        abandon_device(worker);
        return;
      }
      respawns_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::instance().counter("serve.worker_respawns").add();
    }
  }
}

void InferenceEngine::salvage_requests(RequestQueue& queue, const std::vector<RequestPtr>& held,
                                       std::exception_ptr error) {
  // Dedupe while preserving pop order (a carry is usually also the last
  // batch slice's request).
  std::vector<RequestPtr> unique;
  for (const RequestPtr& r : held) {
    if (r && std::find(unique.begin(), unique.end(), r) == unique.end()) unique.push_back(r);
  }
  // Untouched requests (no output rows delivered) lose nothing by being
  // re-served; return them to the FRONT of the queue in reverse pop order so
  // FIFO order survives the crash. Partially delivered requests cannot be
  // restarted (their early rows already live in a fulfilled batch), so their
  // futures fail with the crash error.
  for (auto it = unique.rbegin(); it != unique.rend(); ++it) {
    RequestPtr& r = *it;
    const bool completed = r->rows_done == r->input.dim(0);
    if (completed || r->failed) continue;
    if (r->rows_done == 0) {
      obs::flight_event(r->trace_id, obs::FlightKind::kRequeued);
      queue.requeue(r);
    } else {
      fail_request(*r, error);
    }
  }
}

void InferenceEngine::fail_request(Request& r, std::exception_ptr error,
                                   SloMonitor::Outcome outcome) {
  static auto& failures = obs::Registry::instance().counter("serve.requests_failed");
  if (r.failed || r.rows_done == r.input.dim(0)) return;
  r.failed = true;
  note_resolved(r);  // exactly once: guarded by the terminal-state check above
  const std::int64_t since_submit_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                           std::chrono::steady_clock::now() - r.enqueued_at)
                                           .count();
  switch (outcome) {
    case SloMonitor::Outcome::kExpired:
      obs::flight_event(r.trace_id, obs::FlightKind::kExpired, since_submit_us);
      break;
    case SloMonitor::Outcome::kShed:
      obs::flight_event(r.trace_id, obs::FlightKind::kShed, 1);
      break;
    default:
      obs::flight_event(r.trace_id, obs::FlightKind::kFailed, since_submit_us);
      break;
  }
  slo_.record(outcome, r.queue_wait_us);
  // Counters first: a caller woken by the promise must already see this
  // failure in stats().
  failed_.fetch_add(1, std::memory_order_relaxed);
  failures.add();
  r.promise.set_exception(error);
}

void InferenceEngine::fail_expired(Request& r) {
  if (r.failed || r.rows_done == r.input.dim(0)) return;
  static auto& expired = obs::Registry::instance().counter("serve.expired");
  expired_.fetch_add(1, std::memory_order_relaxed);
  expired.add();
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - r.enqueued_at)
                          .count();
  fail_request(r,
               std::make_exception_ptr(RequestExpired(
                   "request " + std::to_string(r.id) + " expired after " +
                   std::to_string(waited) + " us in the serving pipeline")),
               SloMonitor::Outcome::kExpired);
}

void InferenceEngine::fail_shed(Request& r) {
  if (r.failed || r.rows_done == r.input.dim(0)) return;
  static auto& shed = obs::Registry::instance().counter("serve.shed");
  shed_.fetch_add(1, std::memory_order_relaxed);
  shed.add();
  fail_request(r,
               std::make_exception_ptr(RequestShedError(
                   "request " + std::to_string(r.id) +
                   " shed: evicted by newer work (kShedOldest backpressure)")),
               SloMonitor::Outcome::kShed);
}

Tensor InferenceEngine::run_attempt(WorkerSession& session, const Tensor& input) {
  if (is_cpu(session.backend)) {
    return session.cpu_ip->run(input);
  }
  Tensor output = session.accel->execute(input);
  sim_cycles_.fetch_add(session.accel->last_cycles(), std::memory_order_relaxed);
  return output;
}

void InferenceEngine::demote_to_cpu(WorkerSession& session) {
  static auto& fallbacks = obs::Registry::instance().counter("serve.fallbacks");
  obs::Registry::instance()
      .counter(std::string("serve.fallbacks.") + to_string(session.home_backend))
      .add();
  fallbacks.add();
  if (!session.cpu_ip) {
    // Built from the SESSION's staged version, not the registry's current
    // active: a demotion (or half-open probe) that lands mid-swap must keep
    // serving the version the rest of this session's datapaths carry.
    session.cpu_ip = build_ip(Backend::kCpuFloat, *session.staged_version);
  }
  // The accelerator and its DDR stay alive: the device may recover, and the
  // breaker's half-open probe will re-drive it without a rebuild.
  session.backend = Backend::kCpuFloat;
  obs::flight_event(0, obs::FlightKind::kFallback, static_cast<std::int64_t>(session.index));
}

void InferenceEngine::maybe_probe(WorkerSession& session) {
  if (is_cpu(session.home_backend)) return;  // no device to probe
  if (session.backend != Backend::kCpuFloat) return;  // not demoted
  if (!session.breaker.probe_due()) return;
  // Half-open: this batch runs on the real device. Success closes the
  // breaker; another device fault re-opens it with a longer cooldown (the
  // request is not lost either way — a failed probe falls back within the
  // same recovery loop).
  record_breaker_event(session, CircuitBreaker::Event::kHalfOpened);
  session.backend = session.home_backend;
}

void InferenceEngine::record_breaker_event(WorkerSession& session,
                                           CircuitBreaker::Event event) {
  using Event = CircuitBreaker::Event;
  const std::size_t d = session.index;
  const DeviceMetrics& m = device_metrics_[d];
  const char* global = nullptr;
  obs::Counter* board = nullptr;
  std::uint64_t DeviceStats::*ledger = nullptr;
  obs::FlightKind kind = obs::FlightKind::kBreakerOpen;
  switch (event) {
    case Event::kNone:
      return;
    case Event::kOpened:
      global = "serve.breaker.open";
      board = m.breaker_opens;
      ledger = &DeviceStats::breaker_opens;
      break;
    case Event::kReopened:
      global = "serve.breaker.reopen";
      board = m.breaker_reopens;
      ledger = &DeviceStats::breaker_reopens;
      break;
    case Event::kHalfOpened:
      global = "serve.breaker.half_open";
      board = m.breaker_probes;
      ledger = &DeviceStats::breaker_probes;
      kind = obs::FlightKind::kBreakerProbe;
      break;
    case Event::kClosed:
      global = "serve.breaker.close";
      board = m.breaker_closes;
      ledger = &DeviceStats::breaker_closes;
      kind = obs::FlightKind::kBreakerClose;
      break;
  }
  obs::Registry::instance().counter(global).add();
  board->add();
  {
    std::lock_guard lk(devices_mu_);
    device_stats_[d].*ledger += 1;
  }
  obs::flight_event(0, kind, static_cast<std::int64_t>(d));
  // A session counts as demoted from open until close; a reopen or a probe
  // leaves the count alone.
  static auto& state_gauge = obs::Registry::instance().gauge("serve.breaker_state");
  if (event == Event::kOpened) {
    state_gauge.set(
        static_cast<double>(open_breakers_.fetch_add(1, std::memory_order_relaxed) + 1));
  } else if (event == Event::kClosed) {
    state_gauge.set(
        static_cast<double>(open_breakers_.fetch_sub(1, std::memory_order_relaxed) - 1));
  }
  if (event == Event::kOpened || event == Event::kReopened) {
    m.breaker_open->set(1.0);
    // Steer the router away for the cooldown the breaker just entered;
    // pick() readmits the device when it elapses so the probe gets traffic.
    if (router_) router_->on_breaker_open(d, session.breaker.current_cooldown_us());
  } else if (event == Event::kClosed) {
    m.breaker_open->set(0.0);
    if (router_) router_->on_breaker_close(d);
  }
  // Breaker-open is a wired dump trigger: the device's fault run-up is still
  // in the rings.
  if (event == Event::kOpened) obs::FlightRecorder::instance().dump("breaker_open");
}

Tensor InferenceEngine::run_with_recovery(WorkerSession& session, const MicroBatch& batch) {
  static auto& retry_latency = obs::Registry::instance().histogram("serve.retry_latency_us");
  maybe_probe(session);
  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t backoff_us = config_.fault.backoff_us;
  int attempt = 0;
  const auto slice_events = [&](obs::FlightKind kind, std::int64_t a, std::int64_t b) {
    for (const BatchSlice& slice : batch.slices) {
      if (!slice.request->failed) obs::flight_event(slice.request->trace_id, kind, a, b);
    }
  };
  for (;;) {
    const auto backend_ix = static_cast<std::int64_t>(session.backend);
    slice_events(obs::FlightKind::kExecBegin, static_cast<std::int64_t>(session.index),
                 backend_ix);
    try {
      Tensor output = run_attempt(session, batch.input);
      slice_events(obs::FlightKind::kExecEnd,
                   is_cpu(session.backend) ? 0 : session.accel->last_cycles(), backend_ix);
      record_breaker_event(session, session.breaker.on_success());
      if (attempt > 0) {
        retry_latency.observe(
            static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count()) /
            1e3);
      }
      return output;
    } catch (const fault::FaultError& e) {
      obs::Registry::instance()
          .counter(std::string("serve.faults_injected.") + to_string(session.backend))
          .add();
      // Device faults during a canary phase feed the fault-burst rollback
      // trigger — a candidate whose rollout coincides with a fault storm is
      // not promoted on the strength of a handful of clean canary batches.
      swap_.on_canary_fault();
      // CPU backends (incl. a quantized replica) have no device to presume
      // broken: transient faults there are retried below, never demoted.
      if (!is_cpu(session.backend) && e.transient()) {
        // Circuit breaker: a device faulting this persistently is presumed
        // broken. Open the breaker and demote to the CPU datapath; the
        // demoted session retries immediately (no attempt consumed — the
        // CPU replica has seen no fault yet).
        const CircuitBreaker::Event event = session.breaker.on_fault();
        if (event == CircuitBreaker::Event::kOpened ||
            event == CircuitBreaker::Event::kReopened) {
          // A reopen is a faulted half-open probe: back to CPU, with the
          // longer cooldown the breaker just set.
          record_breaker_event(session, event);
          demote_to_cpu(session);
          continue;
        }
      }
      if (!e.transient() || attempt >= config_.fault.max_retries) throw;
      ++attempt;
      static auto& retries = obs::Registry::instance().counter("serve.retries");
      retries.add();
      {
        std::lock_guard lk(devices_mu_);
        device_stats_[session.index].retries += 1;
      }
      obs::Registry::instance()
          .counter(std::string("serve.retries.") + to_string(session.backend))
          .add();
      slice_events(obs::FlightKind::kRetry, attempt, backend_ix);
      if (backoff_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      // Doubles up to the cap; the comparison keeps the product in range.
      backoff_us = backoff_us > config_.fault.max_backoff_us / 2 ? config_.fault.max_backoff_us
                                                                 : backoff_us * 2;
    }
    // Non-fault exceptions (geometry validation, genuine bad_alloc inside a
    // kernel, ...) are permanent by definition and propagate to the caller.
  }
}

std::size_t InferenceEngine::shed_expired_slices(MicroBatch& batch) {
  const auto now = std::chrono::steady_clock::now();
  std::size_t live = 0;
  for (const BatchSlice& slice : batch.slices) {
    Request& r = *slice.request;
    if (r.failed) continue;
    if (r.expired(now)) {
      fail_expired(r);
      continue;
    }
    ++live;
  }
  return live;
}

void InferenceEngine::apply_exec_deadline(WorkerSession& session, const MicroBatch& batch) {
  if (!session.accel) return;
  // The device poll is bounded by the tightest remaining client budget in
  // the batch: there is no point waiting on DONE for a client that will
  // have given up by then. (The budget is a bound, not a reservation — a
  // faster completion is unaffected.)
  const auto now = std::chrono::steady_clock::now();
  std::int64_t min_remaining_us = 0;
  bool any = false;
  for (const BatchSlice& slice : batch.slices) {
    const Request& r = *slice.request;
    if (r.failed || !r.has_deadline()) continue;
    const std::int64_t remaining = std::max<std::int64_t>(r.remaining_us(now), 1);
    min_remaining_us = any ? std::min(min_remaining_us, remaining) : remaining;
    any = true;
  }
  rt::ExecDeadline deadline = config_.fault.deadline;
  if (any) deadline = deadline.clamped_to_wall(min_remaining_us);
  session.accel->set_deadline(deadline);
}

void InferenceEngine::process_batch(WorkerSession& session, MicroBatch& batch) {
  // Re-check deadlines between batch formation and execution: expired rows
  // are shed with RequestExpired before the IP is touched, and a batch with
  // nothing live left is skipped entirely.
  if (shed_expired_slices(batch) > 0) run_batch(session, batch);
  // Batch boundary, reached on every path: the board's counters (isolation
  // re-runs included) reach its ledger, and the in-flight canary is checked
  // against the rollback triggers and the promotion gate — any worker's
  // boundary may conclude it.
  absorb_device_counters(session);
  if (swap_.in_flight()) swap_.tick(std::chrono::steady_clock::now());
}

void InferenceEngine::run_batch(WorkerSession& session, MicroBatch& batch) {
  // A continuation batch carries later rows of a request whose earlier rows
  // already shipped on the version staged LAST batch. Re-staging now would
  // split that request across versions, so the swap waits one more boundary.
  bool continuation = false;
  for (const BatchSlice& slice : batch.slices) {
    if (!slice.request->failed && slice.row_begin > 0) {
      continuation = true;
      break;
    }
  }
  if (!continuation) sync_session_version(session);
  static auto& batches = obs::Registry::instance().counter("serve.batches");
  static auto& rows = obs::Registry::instance().counter("serve.rows");
  static auto& occupancy = obs::Registry::instance().histogram("serve.batch_occupancy_pct");
  batches.add();
  rows.add(batch.rows());
  occupancy.observe(100.0 * static_cast<double>(batch.rows()) /
                    static_cast<double>(config_.batcher.max_batch));
  batches_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(static_cast<std::uint64_t>(batch.rows()), std::memory_order_relaxed);
  for (const BatchSlice& slice : batch.slices) {
    if (slice.request->failed) continue;
    // Flow step bound to the enclosing serve.batch span on this worker's
    // thread: the request's arrow hops from its submit span to here.
    obs::flow_step(slice.request->trace_id);
    obs::flight_event(slice.request->trace_id, obs::FlightKind::kBatchJoin,
                      static_cast<std::int64_t>(session.index),
                      slice.row_end - slice.row_begin);
  }
  apply_exec_deadline(session, batch);
  const auto exec_t0 = std::chrono::steady_clock::now();
  const bool canary = !continuation && pick_canary(session, batch);
  bool on_canary = false;  // set only when the canary replica actually ran
  try {
    Tensor output;
    if (canary) {
      try {
        output = run_canary(session, batch);
        on_canary = true;
      } catch (...) {
        // A canary replica failure must never cost the client: count it
        // against the candidate and serve the batch on the active path.
        swap_.on_canary_fault();
        output = run_with_recovery(session, batch);
      }
    } else {
      output = run_with_recovery(session, batch);
    }
    // Every response is attributable to exactly one version: the whole batch
    // ran on either the canary replica or the staged active datapath.
    const VersionCounters& served = on_canary ? session.canary_counters
                                              : session.staged_counters;
    served.batches->add();
    served.rows->add(batch.rows());
    if (router_) {
      // Feed the router's EWMA what this device actually delivered:
      // simulated board time for accelerator batches (cycles at the board's
      // clock), wall time for CPU(-fallback) batches — so a demoted device
      // drifts expensive and traffic rebalances.
      double us_per_row;
      if (!on_canary && !is_cpu(session.backend)) {
        us_per_row = static_cast<double>(session.accel->last_cycles()) /
                     session.accel->profile().clock_mhz / static_cast<double>(batch.rows());
      } else {
        us_per_row = static_cast<double>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - exec_t0)
                             .count()) /
                     static_cast<double>(batch.rows());
      }
      router_->observe(session.index, us_per_row);
    }
    device_metrics_[session.index].batches->add();
    device_metrics_[session.index].rows->add(batch.rows());
    {
      std::lock_guard lk(devices_mu_);
      device_stats_[session.index].batches += 1;
      device_stats_[session.index].rows += static_cast<std::uint64_t>(batch.rows());
    }
    finish_rows(batch, output);
  } catch (...) {
    // Requests whose deadline ran out while the batch was failing resolve
    // as expired, not as casualties of the device error.
    const std::size_t live = shed_expired_slices(batch);
    if (live > 1) {
      // The coalesced batch failed even after retries. Don't fail every
      // co-batched request collectively — re-run each request's slice alone
      // so only the ones that fail on their own carry the error.
      isolate_slices(session, batch);
    } else if (live == 1) {
      fail_batch(batch, std::current_exception());
    }
  }
}

void InferenceEngine::isolate_slices(WorkerSession& session, MicroBatch& batch) {
  static auto& isolations = obs::Registry::instance().counter("serve.isolation_runs");
  isolations.add();
  const index_t row_floats =
      config_.point.dim * config_.point.height * config_.point.width;
  const auto now = std::chrono::steady_clock::now();
  for (const BatchSlice& slice : batch.slices) {
    if (slice.request->failed) continue;  // earlier batch already delivered an error
    if (slice.request->expired(now)) {
      fail_expired(*slice.request);
      continue;
    }
    const index_t n = slice.row_end - slice.row_begin;
    MicroBatch one;
    one.input = Tensor(Shape{n, config_.point.dim, config_.point.height, config_.point.width});
    std::memcpy(one.input.data(), batch.input.data() + slice.batch_row * row_floats,
                static_cast<std::size_t>(n * row_floats) * sizeof(float));
    one.slices = {BatchSlice{slice.request, slice.row_begin, slice.row_end, 0}};
    obs::flight_event(slice.request->trace_id, obs::FlightKind::kIsolated,
                      static_cast<std::int64_t>(session.index));
    apply_exec_deadline(session, one);  // this slice's own remaining budget
    try {
      Tensor output = run_with_recovery(session, one);
      finish_rows(one, output);
    } catch (...) {
      fail_batch(one, std::current_exception());
    }
  }
}

void InferenceEngine::finish_rows(const MicroBatch& batch, const Tensor& output) {
  static auto& completed = obs::Registry::instance().counter("serve.requests_completed");
  static auto& latency_us = obs::Registry::instance().histogram("serve.request_latency_us");
  const index_t row_floats =
      config_.point.dim * config_.point.height * config_.point.width;
  for (const BatchSlice& slice : batch.slices) {
    Request& r = *slice.request;
    if (r.failed) continue;  // an earlier slice already delivered the error
    if (r.output.numel() == 0) r.output = Tensor(r.input.shape());
    const index_t n = slice.row_end - slice.row_begin;
    std::memcpy(r.output.data() + slice.row_begin * row_floats,
                output.data() + slice.batch_row * row_floats,
                static_cast<std::size_t>(n * row_floats) * sizeof(float));
    r.rows_done += n;
    if (r.rows_done == r.input.dim(0)) {
      if (r.squeeze) {
        // Hand back the rank-3 shape the caller submitted.
        r.output.reshape_inplace(
            Shape{r.output.dim(1), r.output.dim(2), r.output.dim(3)});
      }
      const std::int64_t latency =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - r.enqueued_at)
              .count();
      {
        // Terminal point of the request's flow chain, bound to its own small
        // span so the arrow lands on a named slice in Perfetto.
        obs::ScopedSpan done("serve.complete");
        done.attr("trace_id", static_cast<std::int64_t>(r.trace_id));
        obs::flow_end(r.trace_id);
      }
      obs::flight_event(r.trace_id, obs::FlightKind::kCompleted, latency, r.queue_wait_us);
      slo_.record(SloMonitor::Outcome::kCompleted, r.queue_wait_us, latency);
      note_resolved(r);  // rows_done just hit the total — first and only time
      // Counters first: a caller woken by the promise must already see this
      // completion in stats().
      completed_.fetch_add(1, std::memory_order_relaxed);
      completed.add();
      latency_us.observe(static_cast<double>(latency));
      r.promise.set_value(std::move(r.output));
    }
  }
}

void InferenceEngine::absorb_device_counters(WorkerSession& session) {
  if (!session.accel) return;
  const rt::DeviceCounters delta = session.accel->take_counters();
  if (delta.total_cycles() == 0 && delta.starts == 0 && delta.stalls == 0) return;
  std::lock_guard lk(devices_mu_);
  device_stats_[session.index].counters += delta;
}

void InferenceEngine::fail_batch(MicroBatch& batch, std::exception_ptr error) {
  for (const BatchSlice& slice : batch.slices) {
    fail_request(*slice.request, error);
  }
}

// ── Live model updates ──────────────────────────────────────────────────────

void InferenceEngine::sync_session_version(WorkerSession& session) {
  const std::uint64_t epoch = swap_.epoch();
  if (session.staged_epoch == epoch) return;  // fast path: nothing changed
  const auto [active, canary] = swap_.versions();
  const bool restage = session.staged_version != active;
  const bool canary_change = session.canary_version != canary;
  if (!restage && !canary_change) {
    // Epoch bump with no work for this session (e.g. it already staged the
    // version another worker's commit just made active).
    session.staged_epoch = epoch;
    return;
  }
  obs::ScopedSpan span("serve.swap.stage");
  span.attr("worker", static_cast<std::int64_t>(session.index));
  span.attr("version", static_cast<std::int64_t>(active->id));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (fault::fire("serve.swap.stage")) {
      throw fault::SwapStageFault("serve.swap.stage");
    }
    if (restage) {
      if (session.cpu_ip) {
        // kCpuFloat here covers both a CPU home backend and the demoted /
        // fallback replica of an FPGA session (same float datapath point).
        session.cpu_ip = build_ip(
            is_cpu(session.home_backend) ? session.home_backend : Backend::kCpuFloat, *active);
      }
      if (session.accel) {
        // Re-stage the board: batch-resident weights are invalidated, so the
        // next START streams the new version (rt.mhsa_accel.swap_ip).
        session.accel->swap_ip(build_ip(session.home_backend, *active));
      }
      session.staged_version = active;
      session.staged_counters = VersionCounters(active->id);
      obs::flight_event(0, obs::FlightKind::kSwapStage,
                        static_cast<std::int64_t>(session.index),
                        static_cast<std::int64_t>(active->id));
    }
    if (canary_change) {
      if (canary) {
        // Canary and shadow replicas are built at the session's HOME datapath
        // point, so a canary batch is bitwise what the promoted version will
        // serve on this board, and the shadow baseline is scored like-for-like.
        session.canary_ip = build_ip(session.home_backend, *canary);
        session.shadow_ip = build_ip(session.home_backend, *active);
      } else {
        session.canary_ip.reset();
        session.shadow_ip.reset();
      }
      session.canary_version = canary;
      if (canary) session.canary_counters = VersionCounters(canary->id);
    }
    session.staged_epoch = epoch;
    swap_.on_stage(restage, static_cast<double>(
                                std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count()));
  } catch (const fault::FaultError&) {
    // Keep the old staging intact — the session continues serving its current
    // version coherently and retries at the next batch boundary. A canary
    // that can never stage is bounded by the swap timeout.
    swap_.on_stage_failure();
  }
}

bool InferenceEngine::pick_canary(WorkerSession& session, const MicroBatch& batch) {
  if (!session.canary_ip || !session.canary_version) return false;
  // A batch is canary-eligible only when every slice is a WHOLE request: a
  // request split across batches must resolve on exactly one version, and
  // batch-level canary routing cannot guarantee that across boundaries.
  for (const BatchSlice& slice : batch.slices) {
    if (slice.request->failed) continue;
    if (slice.row_begin > 0 || slice.row_end < slice.request->input.dim(0)) return false;
  }
  // Deterministic interleave at canary_fraction f: batch n is a canary batch
  // iff floor((n+1)·f) > floor(n·f) — exact long-run fraction, no RNG.
  const double f = config_.hot_swap.canary_fraction;
  const auto n = canary_pick_counter_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::uint64_t>(static_cast<double>(n + 1) * f) >
         static_cast<std::uint64_t>(static_cast<double>(n) * f);
}

Tensor InferenceEngine::run_canary(WorkerSession& session, const MicroBatch& batch) {
  obs::ScopedSpan span("serve.canary");
  span.attr("worker", static_cast<std::int64_t>(session.index));
  span.attr("version", static_cast<std::int64_t>(session.canary_version->id));
  span.attr("rows", batch.rows());
  const std::uint64_t cand_id = session.canary_version->id;
  for (const BatchSlice& slice : batch.slices) {
    if (!slice.request->failed) {
      obs::flight_event(slice.request->trace_id, obs::FlightKind::kSwapCanary,
                        static_cast<std::int64_t>(session.index),
                        static_cast<std::int64_t>(cand_id));
    }
  }
  Tensor output = session.canary_ip->run(batch.input);
  // Shadow scoring: the same rows on the active version's replica, scored as
  // normalized mean absolute divergence. The shadow output is never served —
  // it only feeds the promotion gate.
  const Tensor baseline = session.shadow_ip->run(batch.input);
  double num = 0.0;
  double den = 0.0;
  const float* a = output.data();
  const float* b = baseline.data();
  for (index_t i = 0; i < output.numel(); ++i) {
    num += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    den += std::abs(static_cast<double>(b[i]));
  }
  swap_.on_canary_batch(cand_id, num / (den + 1e-12));
  return output;
}

void InferenceEngine::begin_swap(std::uint64_t id) {
  if (stopped_.load(std::memory_order_relaxed)) {
    throw EngineStoppedError("InferenceEngine::begin_swap: engine is shut down");
  }
  swap_.begin(id, std::chrono::steady_clock::now());
}

bool InferenceEngine::cancel_swap() { return swap_.cancel(); }

std::uint64_t InferenceEngine::active_version() const { return swap_.versions().active->id; }

SwapStats InferenceEngine::swap_stats() const { return swap_.stats(); }

void InferenceEngine::shutdown() {
  std::lock_guard lk(shutdown_mu_);
  stopped_.store(true, std::memory_order_relaxed);
  queue_.close();
  // Cluster: the router drains the central queue, then closes the device
  // queues itself — joining it first guarantees the workers see closed
  // queues and drain everything already routed.
  if (router_thread_.joinable()) router_thread_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.reset();
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rows = rows_.load(std::memory_order_relaxed);
  s.respawns = respawns_.load(std::memory_order_relaxed);
  s.open_breakers = open_breakers_.load(std::memory_order_relaxed);
  s.queue_wait_p50_us = queue_wait_us_.percentile(50);
  s.queue_wait_p95_us = queue_wait_us_.percentile(95);
  s.queue_wait_p99_us = queue_wait_us_.percentile(99);
  s.sim_cycles = sim_cycles_.load(std::memory_order_relaxed);
  {
    // Workers absorb their accelerator's counters after every batch, so this
    // never touches sessions_ (which respawns mutate concurrently).
    // Engine-wide event counts are sums over the per-board ledger.
    std::lock_guard lk(devices_mu_);
    for (std::size_t d = 0; d < device_stats_.size(); ++d) {
      DeviceStats ds = device_stats_[d];
      s.retries += ds.retries;
      s.breaker_opens += ds.breaker_opens;
      s.breaker_probes += ds.breaker_probes;
      s.breaker_reopens += ds.breaker_reopens;
      s.breaker_closes += ds.breaker_closes;
      if (!is_cpu(boards_[d].backend)) s.devices[ds.backend] += ds.counters;
      if (router_) {
        ds.breaker_open = router_->breaker_open(d);
        ds.lost = router_->lost(d);
        ds.pending_rows = router_->pending_rows(d);
        ds.est_us_per_row = router_->us_per_row(d);
      }
      s.device_stats.emplace(boards_[d].name, std::move(ds));
    }
  }
  s.fallbacks = s.breaker_opens + s.breaker_reopens;
  s.slo = slo_.snapshot();
  s.swap = swap_stats();
  return s;
}

}  // namespace nodetr::serve
