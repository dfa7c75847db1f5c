#include "scenario/work_queue.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <stdio.h>
#include <unistd.h>

#include "util/atomic_file.hpp"
#include "util/config.hpp"
#include "util/digest.hpp"

namespace caem::scenario {

namespace fs = std::filesystem;

struct ReleaseSignal {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t epoch = 0;
};

namespace {

/// Claim dir -> its sweep's release signal.  Entries are weak: a signal
/// lives exactly as long as the boards sharing it, and the last board's
/// drop erases its entry, so a long-running daemon serving sweep after
/// sweep holds state only for the sweeps it is draining right now.
struct ReleaseRegistry {
  std::mutex mutex;
  std::map<std::string, std::weak_ptr<ReleaseSignal>> signals;
};

ReleaseRegistry& release_registry() {
  // Leaked on purpose: boards may outlive static destruction order.
  static ReleaseRegistry& registry = *new ReleaseRegistry();
  return registry;
}

std::shared_ptr<ReleaseSignal> acquire_signal(const std::string& dir) {
  // One key per directory however the cache root was spelled.
  std::error_code error;
  fs::path key = fs::absolute(dir, error);
  if (error) key = dir;
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

std::string local_hostname() {
  char buffer[256] = {0};
  if (::gethostname(buffer, sizeof(buffer) - 1) != 0) return "unknown-host";
  return buffer[0] != '\0' ? std::string(buffer) : std::string("unknown-host");
}

/// Monotonic per-process counter: distinguishes boards (and steal
/// destinations) created by one process.
std::uint64_t next_nonce() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1);
}

std::string random_suffix() {
  static const std::uint64_t entropy = [] {
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  std::ostringstream out;
  out << std::hex << entropy;
  return out.str();
}

}  // namespace

std::string sweep_digest(const std::vector<std::string>& job_keys) {
  std::ostringstream canon;
  canon << "caem-sweep-v1\n" << job_keys.size() << '\n';
  for (const std::string& key : job_keys) canon << key << '\n';
  return util::content_digest(canon.str());
}

std::uint64_t ClaimBoard::now_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

ClaimBoard::ClaimBoard(const std::string& cache_root, const std::string& sweep, double lease_s)
    : sweep_(sweep),
      dir_((fs::path(cache_root) / "sweeps" / sweep / "claims").string()),
      host_(local_hostname()),
      lease_s_(lease_s) {
  if (cache_root.empty()) throw std::invalid_argument("ClaimBoard: empty cache directory");
  if (sweep.empty()) throw std::invalid_argument("ClaimBoard: empty sweep digest");
  if (!(lease_s > 0.0)) throw std::invalid_argument("ClaimBoard: lease must be > 0 seconds");
  signal_ = acquire_signal(dir_);
  // host:pid:nonce-random — unique across hosts (hostname), processes
  // (pid), and boards within one process (nonce); the random suffix
  // guards against pid reuse across a crash/restart on one host.
  token_ = host_ + ":" + std::to_string(::getpid()) + ":" + std::to_string(next_nonce()) + "-" +
           random_suffix();
}

std::string ClaimBoard::claim_path(std::size_t job) const {
  return (fs::path(dir_) / ("job_" + std::to_string(job) + ".claim")).string();
}

std::string ClaimBoard::claim_body(std::size_t job, const std::string& token) const {
  std::ostringstream body;
  body << "v = 1\n"
       << "sweep = " << sweep_ << '\n'
       << "job = " << job << '\n'
       << "token = " << token << '\n'
       << "host = " << host_ << '\n'
       << "pid = " << ::getpid() << '\n'
       << "epoch_ms = " << now_ms() << '\n'
       << "lease_s = " << lease_s_ << '\n';
  return body.str();
}

std::optional<ClaimInfo> ClaimBoard::peek(std::size_t job) const {
  return read_claim(claim_path(job), job);
}

std::optional<ClaimInfo> ClaimBoard::read_claim(const std::string& path, std::size_t job) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const util::Config config = util::Config::from_text(buffer.str());
    if (config.get_int("v", -1) != 1) return std::nullopt;
    if (config.get_string("sweep", "") != sweep_) return std::nullopt;
    ClaimInfo info;
    info.job = static_cast<std::size_t>(config.get_int("job", -1));
    if (info.job != job) return std::nullopt;
    info.token = config.get_string("token", "");
    if (info.token.empty()) return std::nullopt;
    info.host = config.get_string("host", "");
    info.pid = static_cast<std::uint64_t>(config.get_int("pid", 0));
    info.epoch_ms = static_cast<std::uint64_t>(config.get_int("epoch_ms", 0));
    info.lease_s = config.get_double("lease_s", 0.0);
    return info;
  } catch (const std::exception&) {
    return std::nullopt;  // torn/hand-damaged claim reads as unreadable
  }
}

bool ClaimBoard::is_judged(const std::optional<ClaimInfo>& moved,
                           const std::optional<ClaimInfo>& judged) {
  if (moved.has_value() != judged.has_value()) return false;
  return !moved.has_value() ||
         (moved->token == judged->token && moved->epoch_ms == judged->epoch_ms);
}

std::optional<ClaimBoard::Claim> ClaimBoard::steal(std::size_t job,
                                                  const std::optional<ClaimInfo>& judged) {
  const std::string path = claim_path(job);
  // A name unique to (this board, this attempt).
  const std::string aside = path + ".steal-" + std::to_string(::getpid()) + "-" +
                            std::to_string(next_nonce());
  // Our candidate claim goes in under a token that is not ours: a late
  // stealer's candidate can be left standing (see below), and it must
  // never read as "already ours" to a later try_claim of this board.
  util::atomic_write_file(aside, claim_body(job, token_ + "/steal"), "work claim steal");
  std::error_code ignored;
  // Swap the candidate in for whatever stands at the claim path in ONE
  // step: the path is never empty, so no racer's acquire can land in
  // between.  The exchange is the test-and-take: of N racing stealers
  // exactly one moves the judged corpse out.
  if (::renameat2(AT_FDCWD, aside.c_str(), AT_FDCWD, path.c_str(), RENAME_EXCHANGE) != 0) {
    const int error = errno;
    fs::remove(aside, ignored);
    if (error == EINVAL || error == ENOSYS) return steal_by_rename(job, judged);
    return std::nullopt;  // the holder released since our look: the cell is free
  }
  if (is_judged(read_claim(aside, job), judged)) {
    fs::remove(aside, ignored);
    ++stolen_;
    refresh(job);  // re-stamp under our own token (a rename-replace: never empty)
    return Claim::kWon;
  }
  // Late: a faster stealer evicted the corpse first, and we displaced
  // its live claim.  Swap that back; the path held our candidate all
  // the while, so no third racer acquired the cell.  If its holder
  // released meanwhile the exchange finds no path and the cell is
  // free.  Concurrent late stealers can end up restoring each other's
  // candidates instead of the winner's claim; a candidate reads as a
  // healthy foreign claim, and the winner's next refresh replaces it.
  (void)::renameat2(AT_FDCWD, aside.c_str(), AT_FDCWD, path.c_str(), RENAME_EXCHANGE);
  fs::remove(aside, ignored);
  return Claim::kBusy;
}

std::optional<ClaimBoard::Claim> ClaimBoard::steal_by_rename(
    std::size_t job, const std::optional<ClaimInfo>& judged) {
  // For filesystems without RENAME_EXCHANGE (e.g. NFS).  rename with a
  // destination unique to (this board, this attempt) is a filesystem
  // test-and-take: of N racing stealers exactly one rename finds the
  // source present and succeeds; the rest get ENOENT.
  const std::string from = claim_path(job);
  const std::string to = from + ".stale-" + std::to_string(::getpid()) + "-" +
                         std::to_string(next_nonce());
  std::error_code error;
  fs::rename(from, to, error);
  if (error) return std::nullopt;
  // The rename moves whatever claim stands NOW.  A faster stealer may
  // have evicted the judged corpse and published its own live claim
  // since our look: put that claim back instead of evicting it.  Here
  // the path IS empty until the link lands, so a third racer's acquire
  // can slip in — two holders run the cell, which is wasteful but
  // harmless (stores are idempotent).
  const bool judged_one = is_judged(read_claim(to, job), judged);
  if (!judged_one) fs::create_hard_link(to, from, error);
  fs::remove(to, error);  // best-effort cleanup of the moved file
  if (!judged_one) return Claim::kBusy;
  ++stolen_;
  return std::nullopt;  // the corpse is gone: acquire normally
}

ClaimBoard::Claim ClaimBoard::try_claim(std::size_t job) {
  const std::string path = claim_path(job);
  // Each pass either acquires, observes a healthy foreign holder, or
  // steals a stale/corrupt claim.  The bound only guards against a
  // pathological acquire/release storm; hitting it simply reports busy
  // and the caller repolls later.
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (util::atomic_create_file(path, claim_body(job, token_), "work claim")) {
      return Claim::kWon;
    }
    const std::optional<ClaimInfo> standing = peek(job);
    if (!standing.has_value()) {
      std::error_code error;
      if (!fs::exists(path, error)) continue;  // holder released: re-try the acquire
      // Present but unreadable: a claim is published complete (temp +
      // hard link), so this is hand damage — evict it like a stale one.
      if (const std::optional<Claim> claim = steal(job, std::nullopt)) return *claim;
      continue;
    }
    if (standing->token == token_) return Claim::kWon;  // already ours
    const double lease_s = standing->lease_s > 0.0 ? standing->lease_s : lease_s_;
    const std::uint64_t lease_ms = static_cast<std::uint64_t>(lease_s * 1000.0);
    const std::uint64_t now = now_ms();
    // A healthy holder's stamp lies within [now - lease, now + lease]:
    // the claim clock is WALL clock compared across hosts, so modest
    // skew must read as healthy in both directions.  Beyond that window
    // the claim is dead either way — aged past its lease (crashed
    // holder), or stamped more than one lease in the FUTURE (a
    // fast-clock host, or a corrupt stamp).  The future case matters:
    // before this guard such a claim could never expire in this
    // process's frame, leaving the cell unstealable until the skewed
    // host aged it out itself — exactly the straggler the lease
    // protocol exists to prevent.
    const bool expired = now > standing->epoch_ms + lease_ms;
    const bool future_dated = standing->epoch_ms > now + lease_ms;
    if (!expired && !future_dated) return Claim::kBusy;  // healthy holder
    if (const std::optional<Claim> claim = steal(job, standing)) return *claim;
    // The corpse is gone and the path is free: the next pass acquires.
  }
  return Claim::kBusy;
}

void ClaimBoard::refresh(std::size_t job) const {
  // Rename-replace of our own claim with a fresh stamp.  Only the
  // holder calls this, well inside its lease; if a stealer evicted us
  // anyway (extreme descheduling) the refresh re-publishes our claim
  // and both execute the cell — wasteful, but stores are idempotent.
  util::atomic_write_file(claim_path(job), claim_body(job, token_), "work claim refresh");
}

void ClaimBoard::release(std::size_t job) const {
  std::error_code error;
  fs::remove(claim_path(job), error);  // best-effort: a leftover claim merely expires
  // Bump AFTER the remove (and the caller's store before it): a waiter
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
    for (const auto& [dir, slot] : registry.signals) {
      (void)dir;
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

std::size_t ClaimBoard::tracked_sweeps() {
  ReleaseRegistry& registry = release_registry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.signals.size();
}

}  // namespace caem::scenario
