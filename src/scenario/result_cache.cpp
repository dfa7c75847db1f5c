#include "scenario/result_cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/run_result_io.hpp"
#include "util/atomic_file.hpp"
#include "util/numeric.hpp"
#include "util/table_writer.hpp"

namespace caem::scenario {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {
  if (root_.empty()) throw std::invalid_argument("ResultCache: empty cache directory");
}

std::string ResultCache::entry_key(const core::NetworkConfig& config, core::Protocol protocol,
                                   std::uint64_t seed, const core::RunOptions& options) const {
  const fs::path key = fs::path(config.digest()) /
                       (std::string(core::to_string(protocol)) + "_s" + std::to_string(seed) +
                        "_h" + util::format_full(options.max_sim_s) + "_d" +
                        (options.run_to_death ? "1" : "0") + ".json");
  return key.string();
}

std::string ResultCache::entry_path(const core::NetworkConfig& config, core::Protocol protocol,
                                    std::uint64_t seed, const core::RunOptions& options) const {
  return (fs::path(root_) / entry_key(config, protocol, seed, options)).string();
}

std::optional<core::RunResult> ResultCache::load(const std::string& path) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return core::run_result_from_json(buffer.str());
  } catch (const std::exception&) {
    return std::nullopt;  // partial write / old format: recompute
  }
}

void ResultCache::store(const std::string& path, const core::RunResult& result) const {
  // Publish-by-rename (util::atomic_write_file) so a crash mid-write
  // leaves no half-entry under the final name, and two writers racing
  // on the same cell — two sweeps, or two runs of one sweep — leave one
  // valid entry: whoever renames last wins, and both wrote identical bytes
  // anyway (runs are deterministic functions of the key).  Readers
  // racing the rename see either the old complete entry or the new
  // complete entry, never a torn one — the contract the claim drain
  // leans on (work_queue.hpp).
  util::atomic_write_file(path, core::to_json(result) + '\n', "result cache");
}

std::string ResultCache::touch_path(const std::string& path) { return path + ".touch"; }

std::uint64_t ResultCache::read_touches(const std::string& path) {
  std::ifstream in(touch_path(path), std::ios::binary);
  if (!in) return 0;
  std::string token;
  in >> token;
  return util::parse_uint(token).value_or(0);
}

void ResultCache::touch(const std::string& path) const {
  // Read-increment-rewrite, atomically published.  Two concurrent
  // touches can collapse into one — fine for a utility signal — but a
  // reader never sees a torn counter, and a counter is only ever
  // written next to an entry that exists.
  try {
    util::atomic_write_file(touch_path(path), std::to_string(read_touches(path) + 1) + '\n',
                            "cache touch");
  } catch (const std::exception&) {
    // An unwritable sidecar must never turn a hit into a failure.
  }
}

std::vector<CacheEntryInfo> ResultCache::enumerate() const {
  std::vector<CacheEntryInfo> entries;
  std::error_code error;
  fs::directory_iterator digests(root_, error);
  if (error) return entries;  // no cache dir yet: nothing stored
  for (const fs::directory_entry& digest_dir : digests) {
    if (!digest_dir.is_directory(error) || error) continue;
    const std::string digest = digest_dir.path().filename().string();
    // "artifacts" holds caem serve's rendered outputs, not entries.
    if (digest == "artifacts") continue;
    fs::directory_iterator cells(digest_dir.path(), error);
    if (error) continue;
    for (const fs::directory_entry& cell : cells) {
      if (!cell.is_regular_file(error) || error) continue;
      if (cell.path().extension() != ".json") continue;
      CacheEntryInfo info;
      info.path = cell.path().string();
      info.key = (fs::path(digest) / cell.path().filename()).string();
      info.bytes = static_cast<std::uint64_t>(cell.file_size(error));
      if (error) continue;
      // Load to recover the recomputation cost; an unreadable entry is
      // a miss-in-waiting and not worth scoring (the janitor would
      // evict it first anyway, and deleting it changes nothing).
      const std::optional<core::RunResult> result = load(info.path);
      if (!result) continue;
      info.wall_ms = result->wall_ms;
      info.touches = read_touches(info.path);
      entries.push_back(std::move(info));
    }
  }
  return entries;
}

}  // namespace caem::scenario
