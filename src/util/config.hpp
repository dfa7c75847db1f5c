// config.hpp — lightweight key=value configuration store.
//
// Examples and benchmarks accept `key=value` command-line overrides so a
// user can sweep parameters without recompiling; this class parses and
// type-checks them.  Scenario files (see scenario/) load through
// `from_file`: `resolve_includes` inlines their `include` directives
// into one self-contained text, which `from_text` parses (comments and
// CRLF tolerated).  Text that crosses a process boundary, like a
// `caem submit` body, is always resolved first, so the receiver never
// opens a path it was sent.
//
// Thread-safety contract: the typed getters are `const` but record which
// keys were read (for `unconsumed()` typo detection).  That bookkeeping
// is guarded by an internal mutex, so concurrent getter calls on one
// shared Config are safe.  Mutating calls (`set`) are NOT synchronised
// against readers — parse and populate first, then share.  The sweep
// engine additionally snapshots each grid point's NetworkConfig before
// fanning out, so worker threads never touch a shared Config at all.
#pragma once

#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace caem::util {

/// String-keyed configuration with typed getters.  Unknown keys are
/// detectable via `unconsumed()` so callers can reject typos.
class Config {
 public:
  Config() = default;
  Config(const Config& other);
  Config(Config&& other) noexcept;
  Config& operator=(const Config& other);
  Config& operator=(Config&& other) noexcept;

  /// Parse `key=value` tokens (e.g. from argv).  Throws
  /// std::invalid_argument on a token without '='.
  static Config from_args(const std::vector<std::string>& tokens);

  /// Parse newline-separated `key = value` text ('#' starts a comment,
  /// CRLF line endings are tolerated, empty values are allowed, a
  /// duplicated key keeps the last value).  An `include` line is an
  /// error naming its line number: text must be resolved first.
  static Config from_text(const std::string& text);

  /// The file at `path` as one self-contained text: each `include
  /// <path>` directive (resolved relative to the including file) is
  /// replaced by the included file's own resolved text, so included
  /// keys can be overridden by later lines.  Throws
  /// std::invalid_argument on a missing file or an include cycle.
  static std::string resolve_includes(const std::string& path);

  /// `from_text(resolve_includes(path))`; a parse error also names
  /// `path` (its line number counts lines of the resolved text).
  static Config from_file(const std::string& path);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters: return `fallback` when the key is absent; throw
  /// std::invalid_argument when present but malformed.  get_double
  /// rejects "nan" and "inf".
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] long long get_int(const std::string& key, long long fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Counts and sizes: an integer in [0, max], never a negative value
  /// wrapped through an unsigned cast (see parse_uint_key).
  [[nodiscard]] unsigned long long get_uint(
      const std::string& key, unsigned long long fallback,
      unsigned long long max = std::numeric_limits<unsigned long long>::max()) const;

  /// Keys never read through a getter (typo detection for CLIs).
  /// Returns a snapshot; concurrent getters may consume keys after it is
  /// taken.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

  /// All (key, value) pairs in sorted key order.  Does not mark anything
  /// consumed — scenario parsing dispatches on prefixes itself.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> entries() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  void mark_consumed(const std::string& key) const;

  std::map<std::string, std::string> entries_;
  mutable std::map<std::string, bool> consumed_;
  mutable std::mutex consumed_mutex_;
};

/// The range check behind Config::get_uint, for parsers that dispatch on
/// raw entries: `text` as an integer in [0, max], or
/// std::invalid_argument naming `key`.
[[nodiscard]] unsigned long long parse_uint_key(
    const std::string& key, const std::string& text,
    unsigned long long max = std::numeric_limits<unsigned long long>::max());

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string trim(const std::string& text);

}  // namespace caem::util
