#include "nodetr/obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

#include "nodetr/obs/metrics.hpp"
#include "nodetr/obs/trace.hpp"

namespace nodetr::obs {

namespace {

std::atomic<std::uint64_t> g_next_trace_id{1};

/// Chained std::terminate handler: flush the flight recorder before dying so
/// an uncaught exception in a serving run still leaves a timeline behind.
std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_with_dump() {
  FlightRecorder::instance().dump("terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

thread_local void* t_ring = nullptr;  ///< FlightRecorder::Ring* of this thread

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kSubmit: return "submit";
    case FlightKind::kEnqueued: return "enqueued";
    case FlightKind::kRouted: return "routed";
    case FlightKind::kRejected: return "rejected";
    case FlightKind::kShed: return "shed";
    case FlightKind::kExpired: return "expired";
    case FlightKind::kDequeued: return "dequeued";
    case FlightKind::kCarried: return "carried";
    case FlightKind::kBatchJoin: return "batch_join";
    case FlightKind::kExecBegin: return "exec_begin";
    case FlightKind::kExecEnd: return "exec_end";
    case FlightKind::kRetry: return "retry";
    case FlightKind::kFallback: return "fallback";
    case FlightKind::kBreakerOpen: return "breaker_open";
    case FlightKind::kBreakerProbe: return "breaker_probe";
    case FlightKind::kBreakerClose: return "breaker_close";
    case FlightKind::kRequeued: return "requeued";
    case FlightKind::kIsolated: return "isolated";
    case FlightKind::kCompleted: return "completed";
    case FlightKind::kFailed: return "failed";
    case FlightKind::kWorkerCrash: return "worker_crash";
    case FlightKind::kDeadline: return "deadline";
    case FlightKind::kSwapBegin: return "swap_begin";
    case FlightKind::kSwapStage: return "swap_stage";
    case FlightKind::kSwapCanary: return "swap_canary";
    case FlightKind::kSwapCommit: return "swap_commit";
    case FlightKind::kSwapRollback: return "swap_rollback";
    case FlightKind::kMark: return "mark";
  }
  return "?";
}

FlightRecorder::FlightRecorder() {
  if (const char* env = std::getenv("NODETR_FLIGHT"); env != nullptr && *env != '\0') {
    const std::string v(env);
    if (v == "0" || v == "false" || v == "off") {
      enabled_.store(false, std::memory_order_relaxed);
    } else if (v != "1" && v != "true" && v != "on") {
      dump_path_ = v;
      // Only hook terminate when there is somewhere to write: the handler
      // exists to leave an artifact, not to change crash behavior.
      g_prev_terminate = std::set_terminate(&terminate_with_dump);
    }
  }
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

std::uint64_t FlightRecorder::new_trace_id() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::set_dump_path(std::string path) {
  std::lock_guard lk(mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  std::lock_guard lk(mu_);
  return dump_path_;
}

FlightRecorder::Ring& FlightRecorder::ring_for_this_thread() {
  if (t_ring == nullptr) {
    std::lock_guard lk(mu_);
    rings_.push_back(std::make_unique<Ring>());
    t_ring = rings_.back().get();
  }
  return *static_cast<Ring*>(t_ring);
}

void FlightRecorder::record(std::uint64_t trace_id, FlightKind kind, std::int64_t a,
                            std::int64_t b) {
  Ring& ring = ring_for_this_thread();
  // Only this thread advances its head, so relaxed RMW-free increments are
  // safe; a dumping thread sees a consistent-enough prefix (torn events are
  // documented and tolerated — this is a crash artifact, not a ledger).
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[h % kRingSize];
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.ts_ns.store(Tracer::instance().now_ns(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.meta.store(static_cast<std::uint64_t>(kind) |
                      (static_cast<std::uint64_t>(Tracer::thread_index()) << 8),
                  std::memory_order_relaxed);
  ring.head.store(h + 1, std::memory_order_release);
}

void FlightRecorder::collect(std::vector<FlightEvent>& out) const {
  std::lock_guard lk(mu_);
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, kRingSize);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Slot& slot = ring->slots[i];
      FlightEvent ev;
      ev.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      ev.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      ev.a = slot.a.load(std::memory_order_relaxed);
      ev.b = slot.b.load(std::memory_order_relaxed);
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      ev.kind = static_cast<FlightKind>(meta & 0xff);
      ev.tid = static_cast<std::uint32_t>(meta >> 8);
      out.push_back(ev);
    }
  }
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  collect(out);
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) { return x.ts_ns < y.ts_ns; });
  return out;
}

std::vector<FlightEvent> FlightRecorder::events_for(std::uint64_t trace_id) const {
  std::vector<FlightEvent> all = snapshot();
  std::vector<FlightEvent> out;
  for (const FlightEvent& ev : all) {
    if (ev.trace_id == trace_id) out.push_back(ev);
  }
  return out;
}

std::string FlightRecorder::dump_string() const {
  const std::vector<FlightEvent> events = snapshot();
  std::ostringstream os;
  os << "nodetr flight recorder: " << events.size() << " events (last " << kRingSize
     << " per thread; ts relative to process trace epoch)\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%14s %5s %10s %-14s %14s %14s\n", "ts_us", "tid", "trace",
                "event", "a", "b");
  os << line;
  for (const FlightEvent& ev : events) {
    std::snprintf(line, sizeof(line), "%14.3f %5u %10llu %-14s %14lld %14lld\n",
                  static_cast<double>(ev.ts_ns) / 1e3, ev.tid,
                  static_cast<unsigned long long>(ev.trace_id), to_string(ev.kind),
                  static_cast<long long>(ev.a), static_cast<long long>(ev.b));
    os << line;
  }
  return os.str();
}

void FlightRecorder::dump(const std::string& reason) {
  dumps_.fetch_add(1, std::memory_order_relaxed);
  Registry::instance().counter("obs.flight.dumps").add();
  const std::string path = dump_path();
  if (path.empty()) return;  // trigger counted; nothing to write to
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "nodetr::obs: flight dump failed: cannot open %s\n", path.c_str());
    return;
  }
  out << "reason: " << reason << "\n" << dump_string();
  std::fprintf(stderr, "nodetr::obs: flight recorder dumped to %s (reason: %s)\n", path.c_str(),
               reason.c_str());
}

void FlightRecorder::clear() {
  std::lock_guard lk(mu_);
  for (auto& ring : rings_) {
    // Only the head matters for collection; stale slot payloads past the
    // head are never read.
    ring->head.store(0, std::memory_order_release);
  }
}

}  // namespace nodetr::obs
