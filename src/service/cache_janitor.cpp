#include "service/cache_janitor.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "scenario/result_cache.hpp"

namespace caem::service {

namespace fs = std::filesystem;

namespace {

struct ArtifactTree {
  std::uint64_t id = 0;  ///< N of the sweep id "sN"; 0 for any other name
  std::string path;
  std::uint64_t bytes = 0;
};

/// Every tree under <root>/artifacts, oldest sweep id first.
std::vector<ArtifactTree> artifact_trees(const std::string& root) {
  std::vector<ArtifactTree> trees;
  std::error_code error;
  for (fs::directory_iterator it(fs::path(root) / "artifacts", error), end; !error && it != end;
       it.increment(error)) {
    if (!it->is_directory(error) || error) continue;
    ArtifactTree tree;
    tree.path = it->path().string();
    const std::string name = it->path().filename().string();
    if (name.size() > 1 && name[0] == 's') {
      std::uint64_t id = 0;
      const auto [end_of_id, parse_error] =
          std::from_chars(name.data() + 1, name.data() + name.size(), id);
      if (parse_error == std::errc() && end_of_id == name.data() + name.size()) tree.id = id;
    }
    std::error_code walk_error;
    for (fs::recursive_directory_iterator walk(it->path(), walk_error), walk_end;
         !walk_error && walk != walk_end; walk.increment(walk_error)) {
      std::error_code size_error;
      if (!walk->is_regular_file(size_error) || size_error) continue;
      const std::uintmax_t bytes = walk->file_size(size_error);
      if (!size_error) tree.bytes += bytes;
    }
    trees.push_back(std::move(tree));
  }
  std::sort(trees.begin(), trees.end(), [](const ArtifactTree& a, const ArtifactTree& b) {
    return a.id != b.id ? a.id < b.id : a.path < b.path;
  });
  return trees;
}

}  // namespace

CacheJanitor::CacheJanitor(std::string root, std::uint64_t budget_bytes, PinProvider pins)
    : root_(std::move(root)), budget_bytes_(budget_bytes), pins_(std::move(pins)) {
  if (root_.empty()) throw std::invalid_argument("CacheJanitor: empty store directory");
}

CacheJanitor::~CacheJanitor() { stop(); }

JanitorReport CacheJanitor::sweep_once() {
  // One sweep at a time: overlapping enumerate/evict passes would race
  // on file sizes and double-count evictions.
  const std::lock_guard<std::mutex> lock(sweep_mutex_);

  JanitorReport report;
  report.budget_bytes = budget_bytes_;

  const scenario::ResultCache cache(root_);
  std::vector<scenario::CacheEntryInfo> entries = cache.enumerate();
  report.entries = entries.size();
  for (const scenario::CacheEntryInfo& entry : entries) report.bytes_before += entry.bytes;
  report.bytes_after = report.bytes_before;
  if (budget_bytes_ == 0) return report;

  // List the trees before asking for pins: a tree listed here whose
  // sweep is in flight is pinned below, and a sweep that finished
  // before the pin query stays finished (ids are never reused).
  std::vector<ArtifactTree> trees = artifact_trees(root_);
  std::set<std::string> pinned;
  if (pins_) {
    for (std::string& path : pins_()) pinned.insert(std::move(path));
  }
  std::erase_if(trees, [&](const ArtifactTree& tree) { return pinned.count(tree.path) > 0; });
  report.artifact_trees = trees.size();
  for (const ArtifactTree& tree : trees) report.bytes_before += tree.bytes;
  report.bytes_after = report.bytes_before;
  if (report.bytes_before <= budget_bytes_) return report;

  // Rendered trees go first: resubmitting a sweep rebuilds its tree
  // from cache hits, while an evicted entry must be recomputed.
  for (const ArtifactTree& tree : trees) {
    if (report.bytes_after <= budget_bytes_) break;
    std::error_code error;
    fs::remove_all(tree.path, error);
    if (error) continue;
    report.bytes_after -= std::min(report.bytes_after, tree.bytes);
    ++report.artifacts_removed;
    report.artifact_bytes_removed += tree.bytes;
  }

  // Ascending utility; deterministic (wall_ms, key) tie-break so two
  // janitor runs over the same store evict the same entries.
  const auto utility = [](const scenario::CacheEntryInfo& e) {
    return e.bytes == 0 ? 0.0
                        : static_cast<double>(e.touches) * e.wall_ms /
                              static_cast<double>(e.bytes);
  };
  std::sort(entries.begin(), entries.end(),
            [&](const scenario::CacheEntryInfo& a, const scenario::CacheEntryInfo& b) {
              const double ua = utility(a);
              const double ub = utility(b);
              if (ua != ub) return ua < ub;
              if (a.wall_ms != b.wall_ms) return a.wall_ms < b.wall_ms;
              return a.key < b.key;
            });

  for (const scenario::CacheEntryInfo& entry : entries) {
    if (report.bytes_after <= budget_bytes_) break;
    if (pinned.count(entry.path)) {
      ++report.pinned_kept;
      continue;
    }
    std::error_code error;
    if (!fs::remove(entry.path, error) || error) continue;  // raced away: not our eviction
    fs::remove(scenario::ResultCache::touch_path(entry.path), error);  // sidecar goes too
    report.bytes_after -= std::min(report.bytes_after, entry.bytes);
    ++report.evicted;
    report.bytes_evicted += entry.bytes;
  }
  total_evicted_.fetch_add(report.evicted);
  total_bytes_evicted_.fetch_add(report.bytes_evicted);
  return report;
}

void CacheJanitor::start(double interval_s) {
  if (!(interval_s > 0.0)) throw std::invalid_argument("CacheJanitor: interval must be > 0");
  const std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) return;  // already running
  stop_requested_ = false;
  thread_ = std::thread([this, interval_s] {
    std::unique_lock<std::mutex> wait_lock(thread_mutex_);
    const auto interval = std::chrono::duration<double>(interval_s);
    while (!cv_.wait_for(wait_lock, interval, [this] { return stop_requested_; })) {
      wait_lock.unlock();
      sweep_once();
      wait_lock.lock();
    }
  });
}

void CacheJanitor::stop() {
  {
    const std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

}  // namespace caem::service
