// bench.hpp — shared pieces of the caem benchmark binary.
//
// The binary runs ONE workload per process and prints one raw JSON
// document (samples, values, notes, attempted/failed operations); the
// wrapper script (caembench/run.py) turns it into the end-to-end or
// per-layer metrics named in BENCHMARK.json.  Everything here times
// calls into the library's public API from outside: nothing under src/
// knows it is being measured.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/network.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"

namespace caembench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// The workload seed the recorded fingerprints start at.
constexpr std::uint64_t kDefaultSeed = 2005;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;           ///< scratch space inside the checkout
  std::string fingerprints_path;  ///< recorded RunResult fingerprints
  std::string spans_path;         ///< where the traced run writes its spans
  bool record_fingerprints = false;
};

/// Raw measurements of one run of the binary.  Samples are folded into medians
/// and percentiles by run.py; values are single measurements; notes
/// record the inputs a number was measured with (replays).
class Report {
 public:
  void sample(const std::string& name, double value) { samples_[name].push_back(value); }
  void set(const std::string& name, double value) { values_[name] = value; }
  void note(const std::string& name, const std::string& text) { notes_[name] = text; }
  /// Samples recorded so far under `name` (empty when none).
  [[nodiscard]] std::vector<double> samples(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }

  /// Count one checked operation; a false `ok` counts it as failed and
  /// keeps `what` (the first few) for the failure report.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------- tracing

/// In-memory span store of the traced run.  A span has a name, start,
/// end, the span that caused it (0 = root) and a group id shared by all
/// spans of one run or sweep.  Spans are written out once, at the end.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Group id for spans opened on threads the benchmark does not own
  /// (service drain and connection threads): the sweep in flight.
  void set_ambient_group(std::uint64_t group) noexcept { ambient_group_ = group; }
  [[nodiscard]] std::uint64_t ambient_group() const noexcept { return ambient_group_; }

  std::uint64_t open(std::string name, std::uint64_t parent, std::uint64_t group);
  void close(std::uint64_t id);

  /// Write every span as JSON; returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t parent = 0;
    std::uint64_t group = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ambient_group_{0};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< span id = index + 1
};

/// RAII span on the calling thread: its parent is the innermost span
/// this thread has open, its group the parent's.  A span opened with no
/// span open on its thread takes `cross_thread_parent` (a span another
/// thread is waiting in) as parent, and `group` or else the tracer's
/// ambient group.  A no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::uint64_t group = 0,
                      std::uint64_t cross_thread_parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Fresh group id for a new run or sweep.
  static std::uint64_t new_group();
  /// Innermost span open on the calling thread (0 = none).
  static std::uint64_t current() noexcept;

 private:
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_group_ = 0;
};

// ------------------------------------------------------- fingerprints

/// 16-hex-digit FNV-1a of a byte string.
[[nodiscard]] std::string fnv1a_hex(std::string_view bytes);

/// Recorded `<workload> <protocol> <seed> <fnv>` lines.
class Fingerprints {
 public:
  /// Throws when the file cannot be read or records no fingerprint, so a
  /// lost file can never switch the byte-identity check off.
  explicit Fingerprints(const std::string& path);
  /// The recorded fingerprint, or "" when none was recorded.
  [[nodiscard]] std::string find(const std::string& workload, const std::string& protocol,
                                 std::uint64_t seed) const;

 private:
  std::map<std::string, std::string> table_;
};

/// Simulated counts of one or more runs: what a traced run must reproduce
/// exactly, and the per-layer counts of the layers that run inside event
/// callbacks (mac, traffic, queueing, energy).
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double consumed_j = 0.0;
  caem::mac::SensorMacCounters mac;

  SimCounts& operator+=(const SimCounts& other);
  [[nodiscard]] bool operator==(const SimCounts& other) const;
  /// Set sim.events, mac.*, traffic.generated, queueing.dropped, energy.consumed_j.
  void record(Report& report) const;
};

[[nodiscard]] SimCounts counts_of(const caem::core::RunResult& result);

/// Nearest-rank percentile `p` (0-100] of a non-empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Median of a non-empty sample.
[[nodiscard]] inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Median microseconds of one `fn()` over `reps` calls.
template <typename Fn>
double median_call_us(std::size_t reps, Fn&& fn) {
  std::vector<double> us;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    us.push_back(1e6 * seconds_since(start));
  }
  std::nth_element(us.begin(), us.begin() + static_cast<std::ptrdiff_t>(us.size() / 2), us.end());
  return us[us.size() / 2];
}

/// Output checks every finished run must pass at any seed: packets are
/// conserved (delivered + dropped <= generated) and energy is bounded
/// (consumed <= nodes x initial energy).  Returns "" when both hold.
[[nodiscard]] std::string conservation_error(const caem::core::RunResult& result,
                                             const caem::core::NetworkConfig& config);

// ---------------------------------------------------- traced protocols

/// What the leach decorator saw in the first round of the most recent
/// network built on the calling thread: the node positions handed to
/// next_round and the member -> CH pairs it returned.
struct LeachCapture {
  std::vector<caem::channel::Vec2> positions;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
};

/// Decorator totals, summed over every network that used a traced
/// protocol since the last reset (thread-safe).
struct LayerTotals {
  std::uint64_t rounds = 0;
  std::vector<double> next_round_ms;  ///< one entry per next_round call
  std::uint64_t plans = 0;
  std::uint64_t plan_ns = 0;
  std::uint64_t relay_hops = 0;
  std::uint64_t unreachable = 0;
};

/// Register (once) and return "bench-<base>": the built-in protocol
/// `base` with its clustering strategy wrapped by a timing decorator
/// and, when `routed`, its routing strategy too.  The decorators only
/// forward, so a run differs from the built-in's in protocol name only.
/// `routed` must match whether the built-in run takes the routed uplink
/// (a spec carrying a routing factory always does).
[[nodiscard]] caem::core::Protocol traced_protocol(const std::string& base, bool routed);

[[nodiscard]] LayerTotals take_layer_totals();

/// First-round capture of the last traced network whose first round ran
/// on this thread (empty before any).
[[nodiscard]] LeachCapture last_leach_capture();

// ------------------------------------------------------------ replays

/// Run the sim and channel replays on a workload's own inputs and record
/// them, with their inputs as notes:
///   sim.queue_ns_per_op  hold model through Simulator::schedule_in/step
///                        at `pending` live events (skipped when 0);
///   channel.snr_ns_*     LinkManager::snr_db over the capture's in-range
///                        member -> CH pairs on a fresh channel with the
///                        run's config and seed: misses one coherence
///                        window apart, hits check-interval spaced inside
///                        one window; channel.links_live counts the links.
void record_replays(std::uint64_t seed, const caem::core::NetworkConfig& config,
                    const LeachCapture& capture, std::size_t pending, Report& report);

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

// ----------------------------------------------------------- workloads

/// Each returns normally after recording into `report`; exceptions are
/// fatal for the run (the binary exits non-zero without a result).
void run_simulation_workload(const Args& args, Report& report);
void run_serve_workload(const Args& args, Report& report);

}  // namespace caembench
