// table_writer.hpp — aligned console tables plus CSV and JSON output,
// so the scenario summary, the CLI and the table benches print
// paper-style rows uniformly and write machine-readable copies of them.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace caem::util {

/// Column-aligned table builder.  Cells are strings; numeric helpers
/// format with a fixed precision.  Rendering pads to the widest cell.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  /// Begin a new row.  Cells are appended with `cell` overloads.
  TableWriter& new_row();
  TableWriter& cell(std::string text);
  TableWriter& cell(double value, int precision = 3);
  TableWriter& cell(std::size_t value);

  /// Number of completed (plus in-progress) data rows.
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Render as an aligned ASCII table.
  void render(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;

  /// Render as CSV (RFC-4180-ish: quote cells containing commas/quotes).
  void render_csv(std::ostream& out) const;

  /// Render as a JSON array of row objects keyed by header.  Cells that
  /// parse fully as numbers are emitted unquoted; everything else is a
  /// JSON string.
  void render_json(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (shared by TableWriter and logs).
[[nodiscard]] std::string format_fixed(double value, int precision);

/// Format a double with full round-trip precision (%.17g): parsing the
/// result with strtod recovers the exact same bits.  Used by the
/// RunResult serializer and the trace CSVs, whose byte-identity across a
/// compute/cache-load round trip is a tested contract.
[[nodiscard]] std::string format_full(double value);

/// Escape `text` for the inside of a JSON string literal: quote,
/// backslash and every control byte below 0x20 (\b \f \n \r \t by name,
/// the rest as \u00XX).  Other bytes, UTF-8 included, pass through.
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace caem::util
