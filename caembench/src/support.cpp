// support.cpp — report, tracer, fingerprints and output checks.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace caembench {
namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

thread_local std::uint64_t t_open_span = 0;
thread_local std::uint64_t t_open_group = 0;
std::atomic<std::uint64_t> g_next_group{1};

}  // namespace

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? "," : "") << json_string(failures_[i]);
  }
  out << "],\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : samples_) {
    out << (first ? "" : ",") << json_string(name) << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i ? "," : "") << json_number(values[i]);
    }
    out << ']';
    first = false;
  }
  out << "},\"values\":{";
  first = true;
  for (const auto& [name, value] : values_) {
    out << (first ? "" : ",") << json_string(name) << ':' << json_number(value);
    first = false;
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [name, text] : notes_) {
    out << (first ? "" : ",") << json_string(name) << ':' << json_string(text);
    first = false;
  }
  out << "}}";
  return out.str();
}

// ------------------------------------------------------------- tracing

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::open(std::string name, std::uint64_t parent, std::uint64_t group) {
  const std::int64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), parent, group, start, -1});
  return spans_.size();
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end_ns = end;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i + 1 << ",\"parent\":" << span.parent
        << ",\"group\":" << span.group << ",\"name\":" << json_string(span.name)
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns << '}';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(std::string name, std::uint64_t group,
                       std::uint64_t cross_thread_parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  saved_parent_ = t_open_span;
  saved_group_ = t_open_group;
  const std::uint64_t parent = t_open_span != 0 ? t_open_span : cross_thread_parent;
  std::uint64_t span_group = t_open_span != 0 ? t_open_group : group;
  if (span_group == 0) span_group = tracer.ambient_group();
  id_ = tracer.open(std::move(name), parent, span_group);
  t_open_span = id_;
  t_open_group = span_group;
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  Tracer::instance().close(id_);
  t_open_span = saved_parent_;
  t_open_group = saved_group_;
}

std::uint64_t ScopedSpan::new_group() { return g_next_group.fetch_add(1); }

std::uint64_t ScopedSpan::current() noexcept { return t_open_span; }

// ------------------------------------------------------- fingerprints

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

Fingerprints::Fingerprints(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fingerprints file '" + path + "'");
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, protocol, seed, fingerprint;
    if (fields >> workload >> protocol >> seed >> fingerprint) {
      table_[workload + ' ' + protocol + ' ' + seed] = fingerprint;
    }
  }
  if (table_.empty()) throw std::runtime_error("no fingerprints recorded in '" + path + "'");
}

std::string Fingerprints::find(const std::string& workload, const std::string& protocol,
                               std::uint64_t seed) const {
  const auto it = table_.find(workload + ' ' + protocol + ' ' + std::to_string(seed));
  return it == table_.end() ? "" : it->second;
}

SimCounts& SimCounts::operator+=(const SimCounts& other) {
  events += other.events;
  generated += other.generated;
  delivered += other.delivered;
  dropped += other.dropped;
  consumed_j += other.consumed_j;
  mac.checks += other.mac.checks;
  mac.csi_denied += other.mac.csi_denied;
  mac.frames_sent += other.mac.frames_sent;
  mac.collisions += other.mac.collisions;
  return *this;
}

bool SimCounts::operator==(const SimCounts& other) const {
  return events == other.events && generated == other.generated &&
         delivered == other.delivered && dropped == other.dropped &&
         consumed_j == other.consumed_j && mac.checks == other.mac.checks &&
         mac.csi_denied == other.mac.csi_denied && mac.frames_sent == other.mac.frames_sent &&
         mac.collisions == other.mac.collisions;
}

void SimCounts::record(Report& report) const {
  report.set("sim.events", static_cast<double>(events));
  report.set("mac.checks", static_cast<double>(mac.checks));
  report.set("mac.csi_denied_frac",
             mac.checks == 0 ? 0.0
                             : static_cast<double>(mac.csi_denied) /
                                   static_cast<double>(mac.checks));
  report.set("mac.frames_sent", static_cast<double>(mac.frames_sent));
  report.set("mac.collisions", static_cast<double>(mac.collisions));
  report.set("traffic.generated", static_cast<double>(generated));
  report.set("queueing.dropped", static_cast<double>(dropped));
  report.set("energy.consumed_j", consumed_j);
}

SimCounts counts_of(const caem::core::RunResult& r) {
  SimCounts counts;
  counts.events = r.executed_events;
  counts.generated = r.generated;
  counts.delivered = r.delivered_air + r.delivered_self;
  counts.dropped =
      r.dropped_overflow + r.dropped_retry + r.dropped_death + r.dropped_unreachable;
  counts.consumed_j = r.total_consumed_j;
  counts.mac = r.mac;
  return counts;
}

std::string conservation_error(const caem::core::RunResult& r,
                               const caem::core::NetworkConfig& config) {
  const std::uint64_t accounted = r.delivered_air + r.delivered_self + r.dropped_overflow +
                                  r.dropped_retry + r.dropped_death + r.dropped_unreachable;
  if (accounted > r.generated) {
    return "delivered + dropped " + std::to_string(accounted) + " > generated " +
           std::to_string(r.generated);
  }
  const double budget_j = static_cast<double>(config.node_count) * config.initial_energy_j;
  if (!(r.total_consumed_j <= budget_j)) {
    return "consumed " + json_number(r.total_consumed_j) + " J > initial " +
           json_number(budget_j) + " J";
  }
  return "";
}

double peak_rss_mb() {
  // VmHWM is this process image's own peak.  getrusage's ru_maxrss is not:
  // it keeps the peak of the process that exec'd it (the wrapper script).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace caembench
