#include "scenario/work_queue.hpp"

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "util/rng.hpp"

namespace caem::scenario {

namespace fs = std::filesystem;

struct ReleaseSignal {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t epoch = 0;
};

namespace {

/// Lock file -> its store's release signal.  Entries are weak: a signal
/// lives exactly as long as the boards sharing it, and the last board's
/// drop erases its entry, so a long-running daemon holds state only for
/// the stores it is draining right now.
struct ReleaseRegistry {
  std::mutex mutex;
  std::map<std::string, std::weak_ptr<ReleaseSignal>> signals;
};

ReleaseRegistry& release_registry() {
  // Leaked on purpose: boards may outlive static destruction order.
  static ReleaseRegistry& registry = *new ReleaseRegistry();
  return registry;
}

std::shared_ptr<ReleaseSignal> acquire_signal(const std::string& path) {
  // One key per store however the cache root was spelled.
  std::error_code error;
  fs::path key = fs::absolute(path, error);
  if (error) key = path;
  const std::string name = key.lexically_normal().string();

  ReleaseRegistry& registry = release_registry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  std::weak_ptr<ReleaseSignal>& slot = registry.signals[name];
  if (std::shared_ptr<ReleaseSignal> live = slot.lock()) return live;
  std::shared_ptr<ReleaseSignal> fresh(new ReleaseSignal(), [name](ReleaseSignal* signal) {
    {
      ReleaseRegistry& owner = release_registry();
      const std::lock_guard<std::mutex> guard(owner.mutex);
      const auto it = owner.signals.find(name);
      // A board built after our count hit zero may already own a new
      // signal under this name: erase only an expired slot.
      if (it != owner.signals.end() && it->second.expired()) owner.signals.erase(it);
    }
    delete signal;
  });
  slot = fresh;
  return fresh;
}

/// fcntl(F_OFD_SETLK) of `type` on the one byte at `offset`.
int set_lock(int fd, short type, std::int64_t offset) {
  struct flock lock {};
  lock.l_type = type;
  lock.l_whence = SEEK_SET;
  lock.l_start = static_cast<off_t>(offset);
  lock.l_len = 1;
  return ::fcntl(fd, F_OFD_SETLK, &lock);
}

}  // namespace

ClaimBoard::ClaimBoard(const std::string& cache_root) {
  if (cache_root.empty()) throw std::invalid_argument("ClaimBoard: empty cache directory");
  std::error_code error;
  fs::create_directories(cache_root, error);
  if (error) {
    throw std::runtime_error("cannot create cache dir '" + cache_root + "': " + error.message());
  }
  lock_path_ = (fs::path(cache_root) / "claims.lock").string();
  fd_ = ::open(lock_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open claim lock '" + lock_path_ +
                             "': " + std::strerror(errno));
  }
  signal_ = acquire_signal(lock_path_);
}

ClaimBoard::~ClaimBoard() {
  if (fd_ >= 0) ::close(fd_);
}

ClaimBoard::ClaimBoard(ClaimBoard&& other) noexcept
    : lock_path_(std::move(other.lock_path_)),
      fd_(std::exchange(other.fd_, -1)),
      signal_(std::move(other.signal_)) {}

std::int64_t ClaimBoard::lock_offset(const std::string& key) noexcept {
  return static_cast<std::int64_t>(util::fnv1a64(key) & ((std::uint64_t{1} << 62) - 1));
}

ClaimBoard::Claim ClaimBoard::try_claim(const std::string& key) {
  if (set_lock(fd_, F_WRLCK, lock_offset(key)) == 0) return Claim::kWon;
  const int error = errno;
  if (error == EAGAIN || error == EACCES) return Claim::kBusy;
  // ENOLCK (no record locks on this filesystem) and the like: going on
  // without mutual exclusion is never an option.
  throw std::runtime_error("cannot claim a cell in store '" + lock_path_ +
                           "': " + std::strerror(error));
}

void ClaimBoard::release(const std::string& key) const {
  (void)set_lock(fd_, F_UNLCK, lock_offset(key));  // cannot fail on a held byte
  // Bump AFTER the unlock (and the caller's store before it): a waiter
  // woken here finds the cell cached or claimable on its next pass.
  {
    const std::lock_guard<std::mutex> lock(signal_->mutex);
    ++signal_->epoch;
  }
  signal_->cv.notify_all();
}

std::uint64_t ClaimBoard::release_epoch() const {
  const std::lock_guard<std::mutex> lock(signal_->mutex);
  return signal_->epoch;
}

bool ClaimBoard::wait_release(std::uint64_t seen, std::chrono::duration<double> timeout,
                              const std::atomic<bool>* cancel) const {
  std::unique_lock<std::mutex> lock(signal_->mutex);
  return signal_->cv.wait_for(lock, timeout, [&] {
    return signal_->epoch != seen || (cancel != nullptr && cancel->load());
  });
}

void ClaimBoard::wake_waiters() {
  std::vector<std::shared_ptr<ReleaseSignal>> live;
  {
    ReleaseRegistry& registry = release_registry();
    const std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto& [path, slot] : registry.signals) {
      (void)path;
      if (std::shared_ptr<ReleaseSignal> signal = slot.lock()) live.push_back(std::move(signal));
    }
  }
  // Lock each signal before notifying: a waiter that checked its cancel
  // flag just before the caller raised it is then already asleep on the
  // condition and receives this notify.  `live` may hold a signal's last
  // reference, so it is released only after the registry lock.
  for (const std::shared_ptr<ReleaseSignal>& signal : live) {
    { const std::lock_guard<std::mutex> lock(signal->mutex); }
    signal->cv.notify_all();
  }
}

std::size_t ClaimBoard::tracked_stores() {
  ReleaseRegistry& registry = release_registry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.signals.size();
}

}  // namespace caem::scenario
