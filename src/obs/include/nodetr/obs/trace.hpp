// Lightweight scoped tracing (nodetr::obs).
//
// RAII spans with thread-local nesting, steady-clock timestamps, and typed
// attributes; completed spans land in a process-wide Tracer that exports
// Chrome trace-event JSON (load in chrome://tracing or https://ui.perfetto.dev)
// and a hierarchical text summary.
//
// Cost model: tracing is off by default. A disabled ScopedSpan is one relaxed
// atomic load in the constructor and a branch in the destructor — cheap enough
// to leave in the hottest paths (the tier-1 benches must not regress). Enable
// at runtime with Tracer::instance().set_enabled(true), or from the
// environment:
//
//   NODETR_TRACE=trace.json ./quickstart   # enable + write trace.json at exit
//   NODETR_TRACE=1          ./quickstart   # enable only (export manually)
//
// Simulated time (FPGA cycles) and wall-clock land in one trace: the HLS and
// rt layers attach their cycle counts as span attributes.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace nodetr::obs {

/// Span attribute value: integer (e.g. simulated cycles), floating point
/// (e.g. loss), or string (e.g. solver name).
using AttrValue = std::variant<std::int64_t, double, std::string>;
using Attr = std::pair<std::string, AttrValue>;

/// One point of a cross-thread flow arrow (Chrome trace "s"/"t"/"f" events).
/// Recorded while a span is open on the same thread so the exporter's
/// binding point ("bp":"e") attaches the arrow to that enclosing slice; all
/// points sharing an id render as one clickable chain in Perfetto. The
/// serving engine uses the request trace id, so a request's life —
/// submit → batch (per split) → completion — is one arrow chain.
struct FlowRecord {
  std::uint64_t id = 0;
  std::uint64_t ts_ns = 0;  ///< since Tracer epoch
  std::uint32_t tid = 0;
  char phase = 's';  ///< 's' start, 't' step, 'f' end
};

/// One completed span. `path` is the '/'-joined chain of enclosing span names
/// on the same thread ("train.fit/train.epoch/ode.block.forward").
struct SpanRecord {
  std::string name;
  std::string path;
  std::uint64_t start_ns = 0;  ///< since Tracer epoch (steady clock)
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;       ///< dense per-process thread index
  std::uint32_t depth = 0;     ///< nesting depth on its thread (0 = root)
  std::vector<Attr> attrs;

  [[nodiscard]] std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span sink. Thread-safe; spans are buffered in memory (capped
/// at kMaxSpans, further spans are counted as dropped).
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 1u << 20;

  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the tracer's epoch (process start, roughly).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Dense index of the calling thread (0 = first thread that traced).
  [[nodiscard]] static std::uint32_t thread_index();

  void record(SpanRecord&& rec);
  /// Record one flow point (see FlowRecord). Call while the span the arrow
  /// should bind to is open on this thread; prefer the flow_start/step/end
  /// helpers, which check enabled() first.
  void record_flow(std::uint64_t id, char phase);

  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::size_t dropped_count() const;
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::vector<FlowRecord> flow_snapshot() const;
  void clear();

  /// Chrome trace-event JSON ("X" complete events, ts/dur in microseconds).
  [[nodiscard]] std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  /// Hierarchical text summary: per unique span path, call count, total /
  /// self / mean wall time, indented by depth.
  [[nodiscard]] std::string summary() const;

 private:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<FlowRecord> flows_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t epoch_ns_ = 0;   ///< steady-clock origin
  std::string export_path_;      ///< from NODETR_TRACE; written at destruction
};

/// RAII span. Construct with a compile-time name literal; attach attributes
/// any time before destruction. When tracing is disabled the object is inert.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::instance().enabled()) begin(name);
  }
  ~ScopedSpan() {
    if (active_) finish();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] bool active() const { return active_; }

  /// Close the span before scope exit (e.g. to exclude a trailing stage).
  void end() {
    if (active_) {
      finish();
      active_ = false;
    }
  }

  void attr(const char* key, std::int64_t value) {
    if (active_) attrs_.emplace_back(key, AttrValue{value});
  }
  void attr(const char* key, int value) { attr(key, static_cast<std::int64_t>(value)); }
  void attr(const char* key, double value) {
    if (active_) attrs_.emplace_back(key, AttrValue{value});
  }
  void attr(const char* key, const char* value) {
    if (active_) attrs_.emplace_back(key, AttrValue{std::string(value)});
  }
  void attr(const char* key, const std::string& value) {
    if (active_) attrs_.emplace_back(key, AttrValue{value});
  }

 private:
  void begin(const char* name);
  void finish();

  bool active_ = false;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  std::vector<Attr> attrs_;
};

/// Flow arrows linking spans across threads. Record while the span the
/// arrow should attach to is open on the calling thread: start under the
/// producer's span, step under each intermediate hop's span, end under the
/// final span. No-ops while tracing is disabled.
inline void flow_start(std::uint64_t id) {
  auto& t = Tracer::instance();
  if (t.enabled()) t.record_flow(id, 's');
}
inline void flow_step(std::uint64_t id) {
  auto& t = Tracer::instance();
  if (t.enabled()) t.record_flow(id, 't');
}
inline void flow_end(std::uint64_t id) {
  auto& t = Tracer::instance();
  if (t.enabled()) t.record_flow(id, 'f');
}

namespace detail {
#define NODETR_OBS_CONCAT_IMPL(a, b) a##b
#define NODETR_OBS_CONCAT(a, b) NODETR_OBS_CONCAT_IMPL(a, b)
}  // namespace detail

/// Scoped span with an auto-generated variable name:
///   NODETR_TRACE_SCOPE("mhsa.qkv_projection");
#define NODETR_TRACE_SCOPE(name) \
  ::nodetr::obs::ScopedSpan NODETR_OBS_CONCAT(nodetr_obs_span_, __LINE__)(name)

}  // namespace nodetr::obs
