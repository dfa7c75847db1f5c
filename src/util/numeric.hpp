// numeric.hpp — locale-independent number parsing.
//
// std::stod/std::stoll (and the strtod family they wrap) honor the
// global C locale: under a comma-decimal locale "1.5" stops parsing at
// the '.' and every full-token check in the tree starts rejecting
// values that were valid yesterday — config digests, cache entries and
// JSON round-trips silently change with an environment variable.  A
// long-running service cannot tolerate that, so every parse of a
// machine-written number goes through these std::from_chars-based
// helpers instead: C-locale decimal grammar, always, everywhere.
//
// Grammar intentionally matches what our own serializers emit (%.17g /
// decimal integers) plus a tolerated leading '+' for hand-typed config
// values.  Hex floats ("0x1p3"), leading whitespace and other strtod
// liberalities are rejected — nothing in the tree ever produced them.
#pragma once

#include <optional>
#include <string_view>

namespace caem::util {

/// Parse a complete double token ("-1.5", "+2e3", "inf", "nan").
/// std::nullopt unless the WHOLE token parses.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// parse_double restricted to finite values: every config, scenario and
/// sweep number goes through it, so "nan" and "inf" never reach a
/// validate() whose `x <= 0` checks a NaN slips past.
[[nodiscard]] std::optional<double> parse_finite(std::string_view text);

/// Parse a complete base-10 signed integer token.  std::nullopt unless
/// the whole token parses (no range wrap, no trailing characters).
[[nodiscard]] std::optional<long long> parse_int(std::string_view text);

/// Parse a complete base-10 unsigned integer token.
[[nodiscard]] std::optional<unsigned long long> parse_uint(std::string_view text);

}  // namespace caem::util
