// Always-on flight recorder (nodetr::obs): a lock-free per-thread ring of
// the most recent request-scoped trace events, kept even when full span
// tracing is off, so a crash / deadline / breaker-open leaves behind a
// diagnosable timeline instead of a bare exception message.
//
// Model:
//   - every serving-path milestone (submit, enqueue, dequeue, batch join,
//     device exec, retry, fallback, requeue, completion, ...) calls
//     flight_event(trace_id, kind, a, b). The trace id is minted at
//     InferenceEngine::submit (see new_trace_id()) and rides on the request
//     through the queue, the micro-batcher's split/merge/carry, the workers,
//     and the accelerator, so one id names one request everywhere;
//   - each thread records into its own fixed-size ring (no locks, no
//     allocation on the hot path; slot fields are relaxed atomics so a
//     concurrent dump is race-free). The ring holds the last kRingSize
//     events per thread — older history is overwritten, which is the point:
//     the recorder is a black box, not a log;
//   - recording is ON by default. Disabling it (NODETR_FLIGHT=0 or
//     set_enabled(false)) reduces flight_event() to one relaxed atomic load,
//     the same dormant cost as a fault-injection site check. Compiling with
//     -DNODETR_OBS_NO_FLIGHT removes the calls entirely;
//   - dump(reason) merges every thread's ring into one timestamp-sorted
//     text timeline. When NODETR_FLIGHT=<path> is set, dumps are written
//     there automatically on the wired triggers: an injected worker crash,
//     a device DeadlineExceeded, a circuit-breaker open, and std::terminate.
//     Without a path, triggers are only counted (obs.flight.dumps metric)
//     and dump_string()/snapshot() serve on-demand inspection.
//
// Timestamps share the Tracer's epoch, so a flight dump lines up with a
// Chrome trace captured in the same run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nodetr::obs {

/// One milestone in a request's life (or a device/session-level event with
/// trace_id 0). `a`/`b` are kind-specific payloads (rows, µs, cycles, ...).
enum class FlightKind : std::uint8_t {
  kSubmit,        ///< a: rows, b: priority
  kEnqueued,      ///< a: queue depth after push
  kRouted,        ///< a: device index, b: rows (cluster router dispatch)
  kRejected,      ///< a: queue capacity (kReject backpressure)
  kShed,          ///< a: 0 = admission control, 1 = kShedOldest eviction
  kExpired,       ///< a: µs spent in the pipeline
  kDequeued,      ///< a: queue wait µs
  kCarried,       ///< a: rows left for the worker's next batch (split request)
  kBatchJoin,     ///< a: worker, b: rows of this request in the batch
  kExecBegin,     ///< a: worker, b: backend index
  kExecEnd,       ///< a: device cycles of the batch, b: backend index
  kRetry,         ///< a: attempt number, b: backend index
  kFallback,      ///< a: worker (session demoted to the CPU datapath)
  kBreakerOpen,   ///< a: worker (session-level, trace_id 0)
  kBreakerProbe,  ///< a: worker
  kBreakerClose,  ///< a: worker
  kRequeued,      ///< crash salvage returned the request to the queue front
  kIsolated,      ///< a: worker (slice re-run alone after a batch fault)
  kCompleted,     ///< a: latency µs, b: queue wait µs
  kFailed,        ///< a: µs since submit
  kWorkerCrash,   ///< a: worker (trace_id 0)
  kDeadline,      ///< a: stall cycles charged (device-level, trace_id 0)
  kSwapBegin,     ///< a: candidate version id (trace_id 0)
  kSwapStage,     ///< a: worker, b: staged version id (trace_id 0)
  kSwapCanary,    ///< a: worker, b: candidate version id (per canary batch)
  kSwapCommit,    ///< a: promoted version id, b: canary batches (trace_id 0)
  kSwapRollback,  ///< a: rejected version id, b: rollback reason (trace_id 0)
  kMark,          ///< free-form user marker
};

[[nodiscard]] const char* to_string(FlightKind kind);

struct FlightEvent {
  std::uint64_t trace_id = 0;
  std::uint64_t ts_ns = 0;  ///< since the Tracer epoch (steady clock)
  std::int64_t a = 0;
  std::int64_t b = 0;
  FlightKind kind = FlightKind::kMark;
  std::uint32_t tid = 0;  ///< dense thread index (shared with the Tracer)
};

/// Process-wide recorder over per-thread rings. See the file comment.
class FlightRecorder {
 public:
  /// Events retained per thread. Power of two; at ~10 events per request
  /// this keeps the last few hundred requests per worker.
  static constexpr std::size_t kRingSize = 4096;

  static FlightRecorder& instance();

  /// Mint a process-unique request trace id (never returns 0).
  [[nodiscard]] static std::uint64_t new_trace_id();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Where automatic dumps land ("" disables file output; triggers are still
  /// counted). Initialized from NODETR_FLIGHT.
  void set_dump_path(std::string path);
  [[nodiscard]] std::string dump_path() const;

  /// Record one event on the calling thread's ring. Prefer the free
  /// flight_event() wrapper, which short-circuits when disabled.
  void record(std::uint64_t trace_id, FlightKind kind, std::int64_t a = 0, std::int64_t b = 0);

  /// Merge every thread's ring, sorted by timestamp. Events being written
  /// concurrently may read torn (each field is atomic, the event is not);
  /// quiesce first when exactness matters (tests do).
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;
  /// The timeline of one request, sorted by timestamp.
  [[nodiscard]] std::vector<FlightEvent> events_for(std::uint64_t trace_id) const;

  /// Human-readable merged timeline (the dump file format).
  [[nodiscard]] std::string dump_string() const;

  /// Trigger a dump: bumps the obs.flight.dumps counter and, when a dump
  /// path is set, (over)writes the merged timeline there with `reason` in
  /// the header. Called on worker crash, DeadlineExceeded, breaker open,
  /// std::terminate — or on demand.
  void dump(const std::string& reason);

  [[nodiscard]] std::uint64_t dump_count() const {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Drop all recorded events (tests; rings themselves are kept).
  void clear();

 private:
  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  struct Slot {
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::int64_t> a{0};
    std::atomic<std::int64_t> b{0};
    std::atomic<std::uint64_t> meta{0};  ///< kind | tid<<8 | seq<<40
  };
  struct Ring {
    std::atomic<std::uint64_t> head{0};  ///< events ever recorded by this thread
    std::unique_ptr<Slot[]> slots{new Slot[kRingSize]};
  };

  [[nodiscard]] Ring& ring_for_this_thread();
  void collect(std::vector<FlightEvent>& out) const;

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> dumps_{0};
  mutable std::mutex mu_;             ///< guards rings_ registration and dump_path_
  std::vector<std::unique_ptr<Ring>> rings_;  ///< rings outlive their threads
  std::string dump_path_;             ///< from NODETR_FLIGHT
};

/// The hot-path entry point: one relaxed atomic load when recording is
/// disabled, a handful of relaxed stores into the thread's ring when on.
/// Compiled out entirely under NODETR_OBS_NO_FLIGHT.
inline void flight_event(std::uint64_t trace_id, FlightKind kind, std::int64_t a = 0,
                         std::int64_t b = 0) {
#if defined(NODETR_OBS_NO_FLIGHT)
  (void)trace_id;
  (void)kind;
  (void)a;
  (void)b;
#else
  FlightRecorder& fr = FlightRecorder::instance();
  if (!fr.enabled()) return;
  fr.record(trace_id, kind, a, b);
#endif
}

/// Mint a request trace id (see FlightRecorder::new_trace_id).
[[nodiscard]] inline std::uint64_t new_trace_id() { return FlightRecorder::new_trace_id(); }

}  // namespace nodetr::obs
