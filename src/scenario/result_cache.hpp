// result_cache.hpp — digest-keyed persistent store of finished runs.
//
// A simulation run is a pure function of (NetworkConfig, protocol, seed,
// RunOptions): caching its RunResult under a key derived from exactly
// those inputs makes sweeps resumable and incremental — re-running a
// scenario after editing one axis only executes the new cells, the same
// utility-per-byte argument UtilCache makes for link-cost reduction.
//
// Layout (one JSON document per run):
//
//   <root>/<config digest>/<protocol>_s<seed>_h<max_sim_s>_d<0|1>.json
//
// The directory level is NetworkConfig::digest() — the canonical content
// hash of every simulation knob — so all cells sharing a materialised
// config (its protocols and replications) live together and a config
// edit naturally lands in a fresh directory.  The filename carries the
// remaining key inputs in human-readable form: protocol name, seed, the
// horizon (`h`, full-precision) and the run_to_death flag (`d`).
//
// Invalidation is purely structural: there is no TTL and no mandatory
// eviction — an entry is valid forever because its key pins every
// input, including a simulation-semantics version inside the canonical
// text (bumped when simulator behavior changes for identical inputs,
// so old cache dirs can never serve pre-change numbers).  Anything
// unreadable or unparseable (partial write, format-version bump, hand
// edit) is treated as a miss and recomputed/overwritten, never trusted.
//
// A long-running store (caem serve) does bound its size, though:
// touch() keeps an approximate per-entry hit counter in a `.touch`
// sidecar (additive — the JSON document itself never changes, so v1
// readers keep working), enumerate() reports every entry with its byte
// size, recorded wall cost and touch count, and service/cache_janitor
// evicts the lowest utility (touches x wall_ms / bytes) entries first.
// Deleting an entry is always safe: it reads as a miss and recomputes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/simulation_runner.hpp"

namespace caem::scenario {

/// One stored entry as seen by enumerate(): identity, weight and the
/// utility inputs the janitor scores with.
struct CacheEntryInfo {
  std::string key;           ///< "<digest>/<cell>.json", relative to root
  std::string path;          ///< absolute entry location
  std::uint64_t bytes = 0;   ///< entry file size (sidecar not counted)
  std::uint64_t touches = 0; ///< recorded cache hits (approximate)
  double wall_ms = 0.0;      ///< recomputation cost stamped in the entry
};

class ResultCache {
 public:
  /// @param root  cache directory (created lazily on first store)
  explicit ResultCache(std::string root);

  [[nodiscard]] const std::string& root() const noexcept { return root_; }

  /// Cache key of one (config, protocol, seed, options) cell relative to
  /// root(): "<config digest>/<protocol>_s<seed>_h<horizon>_d<flag>.json".
  /// The ordered list of a sweep's entry keys is also the basis of the
  /// sweep digest that claims and worker reports live under (see
  /// scenario/worker_report.hpp).
  [[nodiscard]] std::string entry_key(const core::NetworkConfig& config,
                                      core::Protocol protocol, std::uint64_t seed,
                                      const core::RunOptions& options) const;

  /// root()/entry_key(...) — the absolute entry location.
  [[nodiscard]] std::string entry_path(const core::NetworkConfig& config,
                                       core::Protocol protocol, std::uint64_t seed,
                                       const core::RunOptions& options) const;

  /// Load an entry; std::nullopt on any failure (absent, unparseable,
  /// version mismatch) — corrupt entries read as misses, never as data.
  [[nodiscard]] std::optional<core::RunResult> load(const std::string& path) const;

  /// Store a finished run (creates parent directories).  Throws
  /// std::runtime_error on an unwritable path — a configured cache that
  /// silently drops writes would re-execute everything forever.
  void store(const std::string& path, const core::RunResult& result) const;

  /// Record one cache hit on `path` in its `.touch` sidecar.  Lost
  /// updates under concurrent touches are acceptable — the counter is a
  /// utility signal, not an audit log — and a failed write is silently
  /// ignored (an unwritable sidecar must never fail a hit).
  void touch(const std::string& path) const;

  /// Touch count recorded for `path` (0 when absent/corrupt).
  [[nodiscard]] static std::uint64_t read_touches(const std::string& path);

  /// Sidecar location: "<entry path>.touch".
  [[nodiscard]] static std::string touch_path(const std::string& path);

  /// Walk every stored entry (depth-1 digest directories; the "sweeps"
  /// coordination tree and non-.json files are skipped).  Each entry is
  /// loaded to recover its wall_ms; unreadable entries are skipped —
  /// they read as misses anyway.  Order is unspecified.
  [[nodiscard]] std::vector<CacheEntryInfo> enumerate() const;

 private:
  std::string root_;
};

}  // namespace caem::scenario
