#include "nodetr/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace nodetr::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Per-thread stack of the names of currently-open spans.
thread_local std::vector<const char*> t_span_stack;

std::atomic<std::uint32_t> g_next_tid{0};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_attr_value(std::ostringstream& os, const AttrValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&v)) {
    os << *d;
  } else {
    os << '"' << json_escape(std::get<std::string>(v)) << '"';
  }
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_now_ns()) {
  if (const char* env = std::getenv("NODETR_TRACE"); env != nullptr && *env != '\0') {
    const std::string v(env);
    if (v != "0" && v != "false" && v != "off") {
      enabled_.store(true, std::memory_order_relaxed);
      if (v != "1" && v != "true" && v != "on") export_path_ = v;
    }
  }
}

Tracer::~Tracer() {
  if (!export_path_.empty() && span_count() > 0) {
    try {
      write_chrome_trace(export_path_);
      std::fprintf(stderr, "nodetr::obs: wrote %zu spans to %s (%zu dropped)\n", span_count(),
                   export_path_.c_str(), dropped_count());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "nodetr::obs: trace export failed: %s\n", e.what());
    }
  }
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const { return steady_now_ns() - epoch_ns_; }

std::uint32_t Tracer::thread_index() {
  thread_local std::uint32_t tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void Tracer::record(SpanRecord&& rec) {
  std::lock_guard lk(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(std::move(rec));
}

void Tracer::record_flow(std::uint64_t id, char phase) {
  FlowRecord rec;
  rec.id = id;
  rec.ts_ns = now_ns();
  rec.tid = thread_index();
  rec.phase = phase;
  std::lock_guard lk(mu_);
  if (flows_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  flows_.push_back(rec);
}

std::size_t Tracer::span_count() const {
  std::lock_guard lk(mu_);
  return spans_.size();
}

std::size_t Tracer::dropped_count() const { return dropped_.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard lk(mu_);
  return spans_;
}

std::vector<FlowRecord> Tracer::flow_snapshot() const {
  std::lock_guard lk(mu_);
  return flows_;
}

void Tracer::clear() {
  std::lock_guard lk(mu_);
  spans_.clear();
  flows_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::chrome_trace_json() const {
  const auto spans = snapshot();
  const auto flows = flow_snapshot();
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"nodetr\",\"ph\":\"X\""
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.duration_ns()) / 1e3
       << ",\"pid\":1,\"tid\":" << s.tid;
    os << ",\"args\":{\"path\":\"" << json_escape(s.path) << '"';
    for (const auto& [key, value] : s.attrs) {
      os << ",\"" << json_escape(key) << "\":";
      append_attr_value(os, value);
    }
    os << "}}";
  }
  // Flow arrows: "s"/"t"/"f" events sharing an id draw one chain across
  // threads; "bp":"e" binds each point to the slice enclosing its timestamp.
  for (const auto& f : flows) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"request\",\"cat\":\"serve.request\",\"ph\":\"" << f.phase << '"'
       << ",\"id\":" << f.id << ",\"ts\":" << static_cast<double>(f.ts_ns) / 1e3
       << ",\"pid\":1,\"tid\":" << f.tid << ",\"bp\":\"e\"}";
  }
  os << "\n]}\n";
  return os.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("Tracer: cannot open " + path);
  out << chrome_trace_json();
}

std::string Tracer::summary() const {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint32_t depth = 0;
  };
  const auto spans = snapshot();
  std::map<std::string, Agg> by_path;
  for (const auto& s : spans) {
    auto& a = by_path[s.path];
    ++a.count;
    a.total_ns += s.duration_ns();
    a.depth = s.depth;
  }
  // Self time = total minus the time attributed to direct children.
  for (const auto& [path, agg] : by_path) {
    const auto cut = path.rfind('/');
    if (cut == std::string::npos) continue;
    auto parent = by_path.find(path.substr(0, cut));
    if (parent != by_path.end()) parent->second.child_ns += agg.total_ns;
  }
  std::ostringstream os;
  os << "span summary (" << spans.size() << " spans)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-48s %8s %12s %12s %12s\n", "path", "calls", "total ms",
                "self ms", "mean ms");
  os << line;
  for (const auto& [path, a] : by_path) {
    const auto cut = path.rfind('/');
    const std::string leaf = cut == std::string::npos ? path : path.substr(cut + 1);
    const std::string label = std::string(2 * a.depth, ' ') + leaf;
    const double total_ms = static_cast<double>(a.total_ns) / 1e6;
    const double self_ms =
        static_cast<double>(a.total_ns - std::min(a.child_ns, a.total_ns)) / 1e6;
    std::snprintf(line, sizeof(line), "  %-48s %8llu %12.3f %12.3f %12.4f\n", label.c_str(),
                  static_cast<unsigned long long>(a.count), total_ms, self_ms,
                  total_ms / static_cast<double>(a.count));
    os << line;
  }
  return os.str();
}

void ScopedSpan::begin(const char* name) {
  active_ = true;
  name_ = name;
  depth_ = static_cast<std::uint32_t>(t_span_stack.size());
  t_span_stack.push_back(name);
  start_ns_ = Tracer::instance().now_ns();
}

void ScopedSpan::finish() {
  auto& tracer = Tracer::instance();
  SpanRecord rec;
  rec.end_ns = tracer.now_ns();
  rec.start_ns = start_ns_;
  rec.name = name_;
  rec.path.reserve(64);
  for (const char* frame : t_span_stack) {
    if (!rec.path.empty()) rec.path += '/';
    rec.path += frame;
  }
  t_span_stack.pop_back();
  rec.tid = Tracer::thread_index();
  rec.depth = depth_;
  rec.attrs = std::move(attrs_);
  tracer.record(std::move(rec));
}

}  // namespace nodetr::obs
