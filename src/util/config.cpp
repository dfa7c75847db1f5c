#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/numeric.hpp"

namespace caem::util {

std::string trim(const std::string& text) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  auto begin = text.begin();
  auto end = text.end();
  while (begin != end && is_space(static_cast<unsigned char>(*begin))) ++begin;
  while (end != begin && is_space(static_cast<unsigned char>(*(end - 1)))) --end;
  return std::string(begin, end);
}

Config::Config(const Config& other) {
  const std::lock_guard<std::mutex> lock(other.consumed_mutex_);
  entries_ = other.entries_;
  consumed_ = other.consumed_;
}

Config::Config(Config&& other) noexcept {
  const std::lock_guard<std::mutex> lock(other.consumed_mutex_);
  entries_ = std::move(other.entries_);
  consumed_ = std::move(other.consumed_);
}

Config& Config::operator=(const Config& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(consumed_mutex_, other.consumed_mutex_);
  entries_ = other.entries_;
  consumed_ = other.consumed_;
  return *this;
}

Config& Config::operator=(Config&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(consumed_mutex_, other.consumed_mutex_);
  entries_ = std::move(other.entries_);
  consumed_ = std::move(other.consumed_);
  return *this;
}

Config Config::from_args(const std::vector<std::string>& tokens) {
  Config config;
  for (const auto& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("Config: expected key=value, got '" + token + "'");
    }
    config.set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
  }
  return config;
}

namespace {

/// Strip a '#' comment and surrounding whitespace (CRLF included).
std::string strip_line(const std::string& raw) {
  const auto hash = raw.find('#');
  return trim(hash == std::string::npos ? raw : raw.substr(0, hash));
}

bool is_include(const std::string& stripped) { return stripped.rfind("include ", 0) == 0; }

void resolve_into(std::string& out, const std::filesystem::path& path, int depth) {
  if (depth > 8) {
    throw std::invalid_argument("Config: include depth exceeded at '" + path.string() +
                                "' (cycle?)");
  }
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("Config: cannot open file '" + path.string() + "'");
  }
  std::string line;
  while (std::getline(in, line)) {
    // Comments are stripped before the test, so a commented-out
    // directive stays inert.
    const std::string stripped = strip_line(line);
    if (is_include(stripped)) {
      const std::filesystem::path target = trim(stripped.substr(8));
      resolve_into(out, target.is_absolute() ? target : path.parent_path() / target,
                   depth + 1);
      continue;
    }
    out += line;
    out += '\n';
  }
}

}  // namespace

Config Config::from_text(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string raw;
  for (std::size_t number = 1; std::getline(in, raw); ++number) {
    const std::string line = strip_line(raw);
    if (line.empty()) continue;
    const std::string where = "Config: line " + std::to_string(number) + ": ";
    if (is_include(line)) {
      throw std::invalid_argument(where + "'" + line +
                                  "' is not resolved (inline included files first)");
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(where + "expected key = value, got '" + line + "'");
    }
    config.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return config;
}

std::string Config::resolve_includes(const std::string& path) {
  std::string text;
  resolve_into(text, std::filesystem::path(path), 0);
  return text;
}

Config Config::from_file(const std::string& path) {
  const std::string text = resolve_includes(path);
  try {
    return from_text(text);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string(error.what()) + " (in " + path +
                                ", includes inlined)");
  }
}

void Config::set(const std::string& key, const std::string& value) {
  if (key.empty()) throw std::invalid_argument("Config: empty key");
  entries_[key] = value;
}

bool Config::has(const std::string& key) const { return entries_.count(key) != 0; }

void Config::mark_consumed(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(consumed_mutex_);
  consumed_[key] = true;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  mark_consumed(key);
  return it->second;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  mark_consumed(key);
  // Locale-independent parse (util::parse_finite): a non-"C" global
  // locale must never change what a config value means.
  if (const std::optional<double> value = parse_finite(it->second)) return *value;
  throw std::invalid_argument("Config: key '" + key + "' is not a finite number: '" +
                              it->second + "'");
}

long long Config::get_int(const std::string& key, long long fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  mark_consumed(key);
  if (const std::optional<long long> value = parse_int(it->second)) return *value;
  throw std::invalid_argument("Config: key '" + key + "' is not an integer: '" + it->second +
                              "'");
}

unsigned long long parse_uint_key(const std::string& key, const std::string& text,
                                unsigned long long max) {
  const std::optional<unsigned long long> value = parse_uint(text);
  if (value && *value <= max) return *value;
  if (value) {
    throw std::invalid_argument("key '" + key + "' must be at most " + std::to_string(max) +
                                ", got '" + text + "'");
  }
  if (parse_int(text)) {
    throw std::invalid_argument("key '" + key + "' must not be negative, got '" + text + "'");
  }
  throw std::invalid_argument("key '" + key + "' is not an integer: '" + text + "'");
}

unsigned long long Config::get_uint(const std::string& key, unsigned long long fallback,
                                    unsigned long long max) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  mark_consumed(key);
  return parse_uint_key(key, it->second, max);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  mark_consumed(key);
  std::string lowered = it->second;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lowered == "1" || lowered == "true" || lowered == "yes" || lowered == "on") return true;
  if (lowered == "0" || lowered == "false" || lowered == "no" || lowered == "off") return false;
  throw std::invalid_argument("Config: key '" + key + "' is not a boolean: '" + it->second + "'");
}

std::vector<std::string> Config::unconsumed() const {
  const std::lock_guard<std::mutex> lock(consumed_mutex_);
  std::vector<std::string> keys;
  for (const auto& [key, value] : entries_) {
    (void)value;
    if (!consumed_.count(key)) keys.push_back(key);
  }
  return keys;
}

std::vector<std::pair<std::string, std::string>> Config::entries() const {
  return {entries_.begin(), entries_.end()};
}

}  // namespace caem::util
