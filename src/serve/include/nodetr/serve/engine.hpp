// nodetr::serve — concurrent batched inference engine over the MHSA
// accelerator (the request path the ROADMAP's production north star needs).
//
//   producers ── submit(x, {ttl, priority}) ──► admission control
//                    │   deadline check ► AdmissionController (CoDel shed)
//                    ▼
//               RequestQueue (bounded, kBlock | kReject | kShedOldest)
//                    │  FIFO rows, ≤ max_batch, adaptive linger
//               MicroBatcher (one per worker; order-preserving splits/
//                    │        merges, worker-local carry, expiry re-check)
//                    ▼
//      worker 0..N-1 ── one board per worker (DeviceConfig "dev<i>", or
//          │              the EngineConfig::devices entry in cluster mode)
//          ├─ kCpuFloat:  float32 IP in-process: the software nn MHSA
//          │              module, bitwise the host's inference forward
//          ├─ kCpuQuant:  fixed datapath on block-quantized (int8-wire)
//          │              weights run in-process
//          └─ kFpga*:     the session's own DdrMemory + MhsaAccelerator,
//                         fault-scoped by board name; batched START with
//                         batch-resident weights; per-board circuit
//                         breaker (closed → open → half-open probe → closed)
//                    ▼
//             scatter rows back per request ──► fulfil std::future<Tensor>
//
// Guarantees:
//   - outputs are bitwise identical to running each request alone through
//     the same backend (the IP processes images independently, so batch
//     composition never changes numerics);
//   - every accepted request's future is fulfilled exactly once — with a
//     value, or with a typed exception — including during shutdown, which
//     drains all queued work before the workers exit;
//   - a request's rows stay on one worker in row order even when the request
//     is split across micro-batches;
//   - **bounded completion**: under any fault schedule (stalled IP, DMA /
//     ECC / AXI faults, allocation failure, worker crash — see
//     nodetr::fault) every accepted request still resolves, with a value or
//     a typed exception, in bounded time. Stalls are cut off by the
//     per-execute ExecDeadline; transient device faults are retried with
//     exponential backoff; a batch that keeps failing is re-run slice by
//     slice so co-batched innocent requests are not failed collectively; a
//     crashed worker is respawned after failing its in-flight rows and
//     requeuing every untouched request it held. When a respawn fails the
//     slot is given up; once nothing is left to drain a queue (a cluster
//     board, or a flat engine's last worker) its requests fail with
//     EngineStoppedError, and a flat engine's later submits throw it;
//   - **overload protection**: a request carries an optional deadline (TTL)
//     enforced at admission, re-checked at batch formation (expired rows are
//     shed with RequestExpired before touching the IP), and propagated into
//     the accelerator's ExecDeadline so the client's remaining budget bounds
//     the device poll. Admission control (AdmissionConfig) sheds
//     lowest-priority-first when the standing queue delay exceeds its
//     target; BackpressurePolicy::kShedOldest trades the stalest queued
//     request for the newest. Shed and expired requests always resolve with
//     a typed error (RequestShedError / RequestExpired) — never hang;
//   - **self-healing backends**: each FPGA session runs behind a circuit
//     breaker. Repeated device faults open it (traffic falls back to the
//     in-process CPU float datapath, bitwise for float backends); after a
//     cooldown the next batch probes the device (half-open) and a clean run
//     restores the session's FPGA backend. See circuit_breaker.hpp.
//
// Observability (v2 — see DESIGN.md):
//   - request-scoped tracing: submit mints a trace id (SubmitOptions can pin
//     one) that rides the request through queue, batcher split/merge/carry,
//     worker, and accelerator. With NODETR_TRACE set, flow events
//     (submit -> each batch hop -> serve.complete) make one request a single
//     clickable arrow chain in Perfetto; the always-on flight recorder keeps
//     the same milestones in lock-free per-thread rings and dumps a merged
//     timeline on worker crash, breaker open, DeadlineExceeded, or
//     std::terminate (NODETR_FLIGHT=<path> — see obs/flight_recorder.hpp);
//   - one ledger per board: stats().device_stats holds each board's batches,
//     rows, retries, breaker transitions and rt::DeviceCounters (DMA bytes
//     in/out, weight bytes saved by batch residency, stall cycles,
//     utilization %), drained from its session after every batch. The
//     engine-wide retries / breaker_* / fallbacks and the per-backend
//     stats().devices are sums over that ledger;
//   - SLO watch: stats().slo is a rolling-window goodput / p99 queue-wait /
//     p99 latency snapshot with breach flags (EngineConfig::slo targets).
//
// Cluster mode (EngineConfig::devices non-empty): the boards are the listed
// fleet, and the one addition is a cluster router in front of them —
//
//   producers ──► central RequestQueue (FIFO)
//                     │  single router thread, strict pop order
//                ClusterRouter (cost-model dispatch, breaker-aware;
//                     │         see router.hpp)
//        ┌────────────┼────────────┐
//        ▼            ▼            ▼
//   device queue  device queue  device queue     (one per board, FIFO)
//        │            │            │
//   worker+board  worker+board  worker+board     (per-board fault scopes)
//
// Each DeviceConfig sets its board's name, backend and clock, exactly as a
// flat engine's "dev<i>" boards run the defaults. The
// per-session circuit breaker is that board's breaker; in cluster mode its
// transitions also feed the router, which steers traffic away while the
// cooldown runs. FIFO is preserved per device: the router dispatches in
// submit order and each device queue is FIFO, so two requests routed to the
// same device always execute in submission order (and the flow-event chain
// gains one serve.route hop between submit and batch).
//
// Live model updates (hot-swap — see DESIGN.md §Hot-swap protocol): the
// engine owns a ModelRegistry of immutable versioned weight snapshots
// (version 1 = the construction weights, immediately active) and a
// SwapController (hot_swap.hpp) that holds the canary/rollback policy; the
// engine keeps the session side — staging, canary picks, running replicas.
// begin_swap(id) starts a *canary* phase for a published candidate:
//
//   registry.publish(w) ──► kCandidate ──begin_swap──► canary
//        canary: each worker stages an in-process candidate replica at its
//        next batch boundary (RCU handoff — in-flight batches finish on the
//        old version, nothing drains, no future is dropped) and routes
//        ~canary_fraction of its batches to it, whole batches only — a
//        response is always attributable to exactly one version. Every
//        canary batch is shadow-scored against a baseline replica of the
//        active version (same design point, bitwise-identical numerics to
//        the board datapath), feeding a rolling divergence estimate.
//   promotion: after min_canary_batches clean canary batches with mean
//        divergence <= max_divergence and no SLO-breach delta, the candidate
//        becomes active in one commit point; workers re-stage at their next
//        batch boundary (FPGA sessions swap the board's IP core — batch-
//        resident weights invalidate and the next START re-streams the new
//        version over the configured weight wire).
//   rollback (edge-triggered, automatic): divergence breach, device-fault
//        burst, SLO-breach delta, swap timeout, or an injected commit fault
//        rejects the candidate and drops every canary staging at the next
//        batch boundary; traffic never left the active version's replicas.
//
// Every phase is observable (serve.model.version gauge, serve.swap.*
// counters + stage-pause histogram, per-version serve.version.<id>.*
// counters, flight-recorder kSwap* events) and faultable ("serve.swap.stage"
// and "serve.swap.commit" sites).
//
// Spans: serve.submit / serve.route / serve.batch / serve.complete; metrics
// serve.requests_*, serve.batches, serve.rows, serve.queue_depth, serve.shed,
// serve.expired, serve.retries[.<backend>], serve.fallbacks[.<backend>],
// serve.faults_injected.<backend>, serve.breaker.{open,reopen,half_open,
// close} with the serve.breaker_state gauge (currently demoted sessions),
// serve.device.<name>.{batches,rows,breaker_*} per board (.routed in
// cluster mode),
// serve.worker_aborted / serve.worker_respawns / serve.isolation_runs, and
// the histograms serve.batch_occupancy_pct, serve.queue_wait_us,
// serve.request_latency_us and serve.retry_latency_us (p50/p95/p99).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "nodetr/hls/mhsa_ip.hpp"
#include "nodetr/obs/obs.hpp"
#include "nodetr/rt/accelerator.hpp"
#include "nodetr/serve/admission.hpp"
#include "nodetr/serve/circuit_breaker.hpp"
#include "nodetr/serve/hot_swap.hpp"
#include "nodetr/serve/micro_batcher.hpp"
#include "nodetr/serve/model_registry.hpp"
#include "nodetr/serve/router.hpp"
#include "nodetr/serve/slo.hpp"
#include "nodetr/tensor/parallel.hpp"

namespace nodetr::serve {

enum class Backend {
  kCpuFloat,   ///< float32 IP datapath in-process (no DMA / driver model)
  kCpuQuant,   ///< fixed-point IP datapath in-process on block-quantized
               ///< weights (int8 wire round-trip + fx::qmatmul packed-B^T)
  kFpgaFloat,  ///< float32 IP behind the simulated accelerator driver
  kFpgaFixed,  ///< fixed-point IP behind the simulated accelerator driver
};

[[nodiscard]] const char* to_string(Backend backend);

/// Both CPU backends run the IP replica in-process: no DMA/driver model, no
/// accelerator, no circuit breaker (there is no device to presume broken —
/// a fault-injected CPU run is retried, never demoted). Note the breaker's
/// *fallback* target is always kCpuFloat specifically, so a demoted session
/// is recognizable by `backend == kCpuFloat && home_backend != kCpuFloat`.
[[nodiscard]] constexpr bool is_cpu(Backend backend) {
  return backend == Backend::kCpuFloat || backend == Backend::kCpuQuant;
}

/// Recovery policy for faulted batches. A fault classified transient
/// (fault::is_transient — DMA error, ECC event, AXI NACK, deadline, overflow
/// event) is retried up to `max_retries` times with exponential backoff
/// (the delay doubles per retry, up to `max_backoff_us`);
/// anything else fails the affected requests immediately. Sessions whose
/// device keeps faulting are demoted (and later restored) by the per-session
/// circuit breaker — see EngineConfig::breaker.
struct FaultPolicy {
  int max_retries = 3;
  std::int64_t backoff_us = 50;        ///< first retry delay
  std::int64_t max_backoff_us = 5'000;
  rt::ExecDeadline deadline;           ///< per-execute completion budget (kFpga*)
};

/// Per-request submission options: the deadline budget and priority class
/// the overload-protection path keys on.
struct SubmitOptions {
  /// Time-to-live: the request must complete within this many µs of submit
  /// or it is shed with RequestExpired wherever it is found (queue, batch
  /// formation, shutdown drain). 0 = no deadline.
  std::int64_t ttl_us = 0;
  /// Absolute deadline; overrides ttl_us when set (non-epoch). A deadline
  /// already in the past is refused at admission with RequestExpired.
  std::chrono::steady_clock::time_point deadline{};
  Priority priority = Priority::kNormal;
  /// Request trace id for the flight recorder / Chrome-trace flow chain.
  /// 0 (the default) mints a fresh id at submit; passing an explicit id lets
  /// a caller correlate the request with its own telemetry.
  std::uint64_t trace_id = 0;
};

/// One simulated board, driven by exactly one worker. An FPGA board gets its
/// own DDR (rt::DdrMemory's default 64 MiB), accelerator (the paper's 32-bit
/// HP0 DMA port, the cycle clock, DeviceCounters) and the fault scope
/// `name`; every board gets one circuit breaker and one DeviceStats ledger.
/// Heterogeneous fleets are fine: CPU-float, FPGA-float and FPGA-fixed boards
/// can mix, with the usual numerics caveat that fixed results then depend on
/// placement.
struct DeviceConfig {
  std::string name;  ///< metrics label + fault scope; "" = "dev<index>"
  Backend backend = Backend::kFpgaFloat;
  double clock_mhz = 200.0;
};

struct EngineConfig {
  /// MHSA geometry (and the quantization scheme for kFpgaFixed). The dtype
  /// and weight residency fields are overridden per backend: FPGA sessions
  /// always run batch-resident weights.
  hls::MhsaDesignPoint point;
  Backend backend = Backend::kFpgaFloat;
  /// Flat mode: `workers` default boards "dev<i>", all running `backend`.
  std::size_t workers = 2;
  std::size_t queue_capacity = 64;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  BatcherConfig batcher;
  FaultPolicy fault;
  AdmissionConfig admission;  ///< CoDel-style shedding (disabled by default)
  BreakerConfig breaker;      ///< per-session device circuit breaker
  SloConfig slo;              ///< rolling-window SLO targets (see slo.hpp)
  /// Cluster mode: non-empty makes these the boards — one worker per device,
  /// a router thread between the central queue and the per-device queues.
  /// `workers` and `backend` are then ignored (`workers` is derived from
  /// this list). Names must be unique. Note the fleet buffers up to
  /// (devices + 1) × queue_capacity requests across its queues.
  std::vector<DeviceConfig> devices;
  HotSwapConfig hot_swap;  ///< canary / rollback policy for begin_swap()
};

/// One board's ledger (EngineStats::device_stats). Counter fields accumulate
/// over the engine's lifetime (surviving worker respawns) and are the only
/// record of each event; `breaker_open` / `lost` / `pending_rows` /
/// `est_us_per_row` are live router state at the stats() call (cluster mode
/// only; defaults otherwise).
struct DeviceStats {
  std::string backend;           ///< home backend name ("fpga_float", ...)
  std::uint64_t batches = 0;
  std::uint64_t rows = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_reopens = 0;
  std::uint64_t breaker_closes = 0;
  bool breaker_open = false;     ///< router view: open (incl. cooldown wait)
  bool lost = false;             ///< worker respawn failed; never routed again
  std::int64_t pending_rows = 0; ///< rows routed but not yet resolved
  double est_us_per_row = 0.0;   ///< router's EWMA cost estimate
  rt::DeviceCounters counters;   ///< this board's simulated-time counters
};

struct EngineStats {
  std::uint64_t submitted = 0;   ///< accepted into the queue
  std::uint64_t rejected = 0;    ///< refused under kReject backpressure
  std::uint64_t shed = 0;        ///< shed by admission control / kShedOldest
  std::uint64_t expired = 0;     ///< deadline passed before completion
  std::uint64_t completed = 0;   ///< futures fulfilled with a value
  std::uint64_t failed = 0;      ///< futures fulfilled with an exception
  std::uint64_t batches = 0;     ///< micro-batches executed
  std::uint64_t rows = 0;        ///< total rows executed
  std::uint64_t retries = 0;     ///< batch re-executions after transient faults
  std::uint64_t fallbacks = 0;   ///< demotions to kCpuFloat (opens + reopens)
  std::uint64_t respawns = 0;    ///< worker sessions rebuilt after a crash
  // Circuit-breaker transitions (see circuit_breaker.hpp). These and
  // `retries` are sums over device_stats.
  std::uint64_t breaker_opens = 0;    ///< closed -> open (device presumed broken)
  std::uint64_t breaker_probes = 0;   ///< open -> half-open (cooldown elapsed)
  std::uint64_t breaker_reopens = 0;  ///< half-open -> open (probe faulted)
  std::uint64_t breaker_closes = 0;   ///< half-open -> closed (device healed)
  std::uint64_t open_breakers = 0;    ///< sessions currently demoted to CPU
  // Queue-wait distribution (µs) — the admission-control signal.
  double queue_wait_p50_us = 0.0;
  double queue_wait_p95_us = 0.0;
  double queue_wait_p99_us = 0.0;
  std::int64_t sim_cycles = 0;   ///< accumulated accelerator cycles (FPGA backends)
  /// Per-backend device performance counters (DMA bytes, stall cycles,
  /// utilization %): the sum of device_stats[*].counters over the FPGA
  /// boards of each home backend. Keyed by backend name; CPU-only engines
  /// have no entries.
  std::map<std::string, rt::DeviceCounters> devices;
  /// Per-board ledger keyed by board name ("dev<i>" unless a DeviceConfig
  /// names it), one entry per worker in every engine.
  std::map<std::string, DeviceStats> device_stats;
  /// Rolling-window SLO state (goodput, p99s, breach flags) — see slo.hpp.
  SloSnapshot slo;
  /// Live model-update state (versions, canary, rollbacks) — see HotSwapConfig.
  SwapStats swap;
  /// rows / (batches * max_batch); 1.0 means every batch was full.
  [[nodiscard]] double occupancy(index_t max_batch) const {
    return batches == 0 ? 0.0
                        : static_cast<double>(rows) /
                              (static_cast<double>(batches) * static_cast<double>(max_batch));
  }
};

class InferenceEngine {
 public:
  /// Spins up the worker sessions (each quantizes/copies `weights` into its
  /// own warm MhsaIpCore replica) and starts serving immediately. Throws
  /// std::invalid_argument on an invalid config (workers, queue_capacity,
  /// device clocks / duplicate names, fault/admission/breaker/batcher
  /// bounds).
  InferenceEngine(EngineConfig config, const hls::MhsaWeights& weights);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Submit one request: (D, H, W) single image or (B, D, H, W) multi-row.
  /// The future resolves with the same-shaped output. Throws
  /// std::invalid_argument on a geometry mismatch, QueueFullError under
  /// kReject backpressure, RequestShedError when admission control sheds it,
  /// RequestExpired when opts carries an already-passed deadline, and
  /// EngineStoppedError after shutdown.
  [[nodiscard]] std::future<Tensor> submit(Tensor input, SubmitOptions opts = {});

  /// Stop admitting requests, drain everything already accepted, and join
  /// the workers. Queued requests whose deadline passes during the drain
  /// resolve with RequestExpired. Idempotent and safe to call concurrently.
  void shutdown();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// The engine's version store. Publish candidates here (directly or via
  /// publish_checkpoint), then begin_swap() them into live traffic.
  [[nodiscard]] ModelRegistry& registry() { return registry_; }

  /// Start a canary rollout of a published version: a configurable fraction
  /// of traffic runs on it (whole batches, never mixed), promotion commits
  /// it as active, and any rollback trigger rejects it — see HotSwapConfig.
  /// Workers pick the change up at their next batch boundary; no request in
  /// flight is drained or dropped. Throws std::invalid_argument when `id` is
  /// unknown / rejected / already active or another swap is in flight, and
  /// EngineStoppedError after shutdown. Progress requires traffic: gates are
  /// evaluated at batch boundaries.
  void begin_swap(std::uint64_t id);

  /// Manually roll back an in-flight canary (RollbackReason::kManual).
  /// Returns false when no swap was in flight.
  bool cancel_swap();

  /// The version id non-canary traffic currently targets.
  [[nodiscard]] std::uint64_t active_version() const;
  [[nodiscard]] SwapStats swap_stats() const;

 private:
  struct WorkerSession;
  /// Cached obs handles for one device's namespaced metrics — resolved once
  /// at construction so the per-request/per-batch hot paths skip the
  /// registry's name lookup.
  struct DeviceMetrics {
    obs::Counter* routed = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* rows = nullptr;
    obs::Counter* breaker_opens = nullptr;
    obs::Counter* breaker_probes = nullptr;
    obs::Counter* breaker_reopens = nullptr;
    obs::Counter* breaker_closes = nullptr;
    obs::Gauge* breaker_open = nullptr;
  };

  /// Checks `config` (filling default device names and the cluster worker
  /// count) and returns one board per worker: the `devices` entries in
  /// cluster mode, else `workers` boards "dev<i>" running `backend`.
  [[nodiscard]] static std::vector<DeviceConfig> validated(EngineConfig& config);
  /// Builds worker `worker`'s session and its board: a respawn gets a fresh
  /// board (DDR, accelerator, counters at zero) exactly like bring-up.
  [[nodiscard]] std::unique_ptr<WorkerSession> make_session(std::size_t worker);
  void worker_loop(std::size_t worker);
  /// Cluster mode: drain the central queue in FIFO order, cost-route each
  /// request to a device queue. Closes the device queues on exit so the
  /// workers drain and stop.
  void router_loop();
  /// The worker slot is gone for good. Cluster mode: fail everything still
  /// queued on its device. Flat mode, once no worker is left: close the
  /// shared queue and fail everything on it. Either way no future hangs.
  void abandon_device(std::size_t worker);
  /// One batch boundary: runs the batch's live slices, then drains the
  /// board's counters and ticks the swap controller on every path.
  void process_batch(WorkerSession& session, MicroBatch& batch);
  void run_batch(WorkerSession& session, MicroBatch& batch);
  /// Fail slices whose deadline has passed with RequestExpired; returns the
  /// number of live (non-failed) slices remaining.
  std::size_t shed_expired_slices(MicroBatch& batch);
  void apply_exec_deadline(WorkerSession& session, const MicroBatch& batch);
  [[nodiscard]] Tensor run_attempt(WorkerSession& session, const Tensor& input);
  /// Runs `batch.input` with retry/backoff/breaker recovery; the batch's
  /// slices are only read to attribute retry/exec flight events per request.
  [[nodiscard]] Tensor run_with_recovery(WorkerSession& session, const MicroBatch& batch);
  void maybe_probe(WorkerSession& session);
  void demote_to_cpu(WorkerSession& session);
  /// Record one breaker transition of `session`'s board (kNone is a no-op)
  /// in every store that tracks it: the global serve.breaker.* counter, the
  /// board's counter, gauge and DeviceStats ledger, serve.breaker_state, the
  /// router, and the flight recorder (plus a dump when the breaker opens).
  void record_breaker_event(WorkerSession& session, CircuitBreaker::Event event);
  /// RCU handoff: at a batch boundary, re-stage the session's datapaths to
  /// the current active/candidate versions if the swap epoch moved. Never
  /// throws — a staging fault keeps the old (coherent) staging and retries
  /// at the next boundary.
  void sync_session_version(WorkerSession& session);
  /// The design point a session's serving datapath runs (dtype/wire/
  /// residency resolved per backend).
  [[nodiscard]] hls::MhsaDesignPoint datapath_point(Backend backend) const;
  /// Every IP replica a session runs — the board's, the CPU fallback, the
  /// canary and the shadow — is built here, so their numerics match the
  /// board bitwise.
  [[nodiscard]] std::unique_ptr<hls::MhsaIpCore> build_ip(Backend backend,
                                                          const ModelVersion& version) const;
  /// Deterministically decide whether this batch runs on the canary replica.
  [[nodiscard]] bool pick_canary(WorkerSession& session, const MicroBatch& batch);
  /// Run `batch` on the canary replica and shadow-score it. Throws on a
  /// canary-side fault; the caller falls back to the active path.
  [[nodiscard]] Tensor run_canary(WorkerSession& session, const MicroBatch& batch);
  void isolate_slices(WorkerSession& session, MicroBatch& batch);
  void salvage_requests(RequestQueue& queue, const std::vector<RequestPtr>& held,
                       std::exception_ptr error);
  /// Cluster mode: a routed request reached a terminal state — release its
  /// load from the router's pending accounting (exactly once per request).
  void note_resolved(const Request& r);
  /// Drain the session accelerator's pending DeviceCounters into its board's
  /// ledger. Must run on the worker thread that owns the session
  /// (take_counters is owner-thread-only).
  void absorb_device_counters(WorkerSession& session);
  void fail_batch(MicroBatch& batch, std::exception_ptr error);
  void finish_rows(const MicroBatch& batch, const Tensor& output);
  void fail_request(Request& r, std::exception_ptr error,
                    SloMonitor::Outcome outcome = SloMonitor::Outcome::kFailed);
  void fail_expired(Request& r);
  void fail_shed(Request& r);

  EngineConfig config_;
  std::vector<DeviceConfig> boards_;  ///< one per worker, indexed like sessions_
  /// Version store; the construction weights become version 1 (active).
  /// Sessions stage shared_ptr snapshots from here (RCU — see engine.cpp).
  ModelRegistry registry_;
  RequestQueue queue_;
  AdmissionController admission_;
  SloMonitor slo_;
  /// Canary/rollback policy; reads registry_ and slo_, declared above it.
  SwapController swap_;
  obs::Histogram queue_wait_us_;  ///< engine-local; feeds stats() percentiles
  mutable std::mutex devices_mu_;  ///< guards device_stats_
  std::vector<DeviceStats> device_stats_;  ///< the per-board ledger, indexed by worker
  std::vector<DeviceMetrics> device_metrics_;  ///< indexed by worker
  // Cluster mode (null/empty for flat engines):
  std::unique_ptr<ClusterRouter> router_;
  std::vector<std::unique_ptr<RequestQueue>> device_queues_;
  std::thread router_thread_;
  std::vector<std::unique_ptr<WorkerSession>> sessions_;
  std::unique_ptr<tensor::ThreadPool> pool_;
  std::thread dispatcher_;
  std::mutex shutdown_mu_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> submitted_{0}, rejected_{0}, completed_{0}, failed_{0};
  std::atomic<std::uint64_t> shed_{0}, expired_{0};
  std::atomic<std::uint64_t> batches_{0}, rows_{0}, respawns_{0};
  std::atomic<std::size_t> lost_workers_{0};  ///< flat mode: slots given up
  std::atomic<std::uint64_t> open_breakers_{0};
  std::atomic<std::int64_t> sim_cycles_{0};
  std::atomic<std::uint64_t> canary_pick_counter_{0};
};

}  // namespace nodetr::serve
