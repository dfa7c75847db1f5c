#include "util/numeric.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace caem::util {

namespace {

/// from_chars rejects a leading '+'; the stod-era parsers accepted it
/// and hand-typed config values use it, so strip one before parsing.
std::string_view strip_plus(std::string_view text) {
  if (!text.empty() && text.front() == '+' && text.size() > 1 && text[1] != '-') {
    return text.substr(1);
  }
  return text;
}

template <typename T>
std::optional<T> parse_with_from_chars(std::string_view text) {
  text = strip_plus(text);
  if (text.empty()) return std::nullopt;
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

}  // namespace

std::optional<double> parse_double(std::string_view text) {
  return parse_with_from_chars<double>(text);
}

std::optional<double> parse_finite(std::string_view text) {
  const std::optional<double> value = parse_double(text);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::optional<long long> parse_int(std::string_view text) {
  return parse_with_from_chars<long long>(text);
}

std::optional<unsigned long long> parse_uint(std::string_view text) {
  return parse_with_from_chars<unsigned long long>(text);
}

}  // namespace caem::util
