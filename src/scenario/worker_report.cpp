#include "scenario/worker_report.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/config.hpp"
#include "util/digest.hpp"
#include "util/numeric.hpp"

namespace caem::scenario {

namespace fs = std::filesystem;

namespace {

std::size_t parse_size(const std::string& what, const std::string& text) {
  // util::parse_uint (from_chars) is strict: no '-' wraparound, no
  // trailing characters, no locale sensitivity.
  const std::optional<unsigned long long> value = util::parse_uint(text);
  if (!value) {
    throw std::invalid_argument(what + ": not a non-negative integer: '" + text + "'");
  }
  return static_cast<std::size_t>(*value);
}

std::string join_indices(const std::vector<std::size_t>& indices) {
  std::string out;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(indices[i]);
  }
  return out;
}

std::vector<std::size_t> parse_indices(const std::string& csv) {
  std::vector<std::size_t> out;
  std::string::size_type start = 0;
  for (;;) {
    const auto pos = csv.find(',', start);
    const std::string token = util::trim(
        pos == std::string::npos ? csv.substr(start) : csv.substr(start, pos - start));
    if (!token.empty()) out.push_back(parse_size("report job index", token));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

/// worker_<sanitized token>.done — accepted loosely (any middle), the
/// body's token field is the identity.
bool is_report_name(const std::string& name) {
  constexpr const char* kPrefix = "worker_";
  constexpr const char* kSuffix = ".done";
  constexpr std::size_t kPrefixLen = 7;
  constexpr std::size_t kSuffixLen = 5;
  if (name.size() <= kPrefixLen + kSuffixLen) return false;
  if (name.rfind(kPrefix, 0) != 0) return false;
  return name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0;
}

/// Claim tokens contain ':' and arbitrary hostname characters; keep the
/// filename to the portable [A-Za-z0-9._-] set.
std::string sanitize_token(const std::string& token) {
  std::string out;
  out.reserve(token.size());
  for (const char c : token) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
                      c == '_' || c == '-';
    out += safe ? c : '_';
  }
  return out;
}

}  // namespace

std::string sweep_digest(const std::vector<std::string>& job_keys) {
  std::ostringstream canon;
  canon << "caem-sweep-v1\n" << job_keys.size() << '\n';
  for (const std::string& key : job_keys) canon << key << '\n';
  return util::content_digest(canon.str());
}

WorkerReports::WorkerReports(const std::string& cache_root, const std::string& sweep)
    : sweep_(sweep), dir_((fs::path(cache_root) / "sweeps" / sweep).string()) {
  if (cache_root.empty()) throw std::invalid_argument("WorkerReports: empty cache directory");
  if (sweep.empty()) throw std::invalid_argument("WorkerReports: empty sweep digest");
}

std::string WorkerReports::path(const std::string& token) const {
  return (fs::path(dir_) / ("worker_" + sanitize_token(token) + ".done")).string();
}

void WorkerReports::write(const WorkerReport& report) const {
  if (report.token.empty()) {
    throw std::invalid_argument("worker report: empty token");
  }
  std::ostringstream body;
  body << "v = 1\n"
       << "sweep = " << sweep_ << '\n'
       << "token = " << report.token << '\n'
       << "host = " << report.host << '\n'
       << "pid = " << report.pid << '\n'
       << "total_jobs = " << report.total_jobs << '\n'
       << "cache_hits = " << report.cache_hits << '\n'
       << "stolen = " << report.stolen << '\n'
       << "wall_ms = " << report.wall_ms << '\n'
       << "stored = " << join_indices(report.stored) << '\n';
  util::atomic_write_file(path(report.token), body.str(), "worker report");
}

std::vector<WorkerReport> WorkerReports::collect() const {
  std::vector<WorkerReport> reports;
  std::error_code error;
  fs::directory_iterator it(dir_, error);
  if (error) return reports;  // no sweep dir yet: no worker has finished
  for (const fs::directory_entry& entry : it) {
    if (!is_report_name(entry.path().filename().string())) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      const util::Config config = util::Config::from_text(buffer.str());
      if (config.get_int("v", -1) != 1) continue;
      if (config.get_string("sweep", "") != sweep_) continue;
      WorkerReport report;
      report.token = config.get_string("token", "");
      if (report.token.empty()) continue;
      report.host = config.get_string("host", "");
      report.pid = static_cast<std::uint64_t>(config.get_int("pid", 0));
      report.total_jobs = parse_size("worker total_jobs", config.get_string("total_jobs", "0"));
      report.cache_hits = parse_size("worker cache_hits", config.get_string("cache_hits", "0"));
      report.stolen = parse_size("worker stolen", config.get_string("stolen", "0"));
      report.wall_ms = config.get_double("wall_ms", 0.0);
      report.stored = parse_indices(config.get_string("stored", ""));
      reports.push_back(std::move(report));
    } catch (const std::exception&) {
      continue;  // torn/corrupt report: telemetry only, skip it
    }
  }
  std::sort(reports.begin(), reports.end(),
            [](const WorkerReport& a, const WorkerReport& b) { return a.token < b.token; });
  return reports;
}

}  // namespace caem::scenario
