#include "util/table_writer.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iomanip>
#include <locale>
#include <sstream>

namespace caem::util {

std::string format_fixed(double value, int precision) {
  std::ostringstream out;
  // Pin the stream to the classic locale: rendered tables and CSV cells
  // must use '.' decimals regardless of the process's global locale.
  out.imbue(std::locale::classic());
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string format_full(double value) {
  // to_chars is locale-independent by definition; general/17 emits the
  // same bytes as the former snprintf "%.17g" (verified exhaustively over
  // random doubles and the inf/nan specials) without consulting LC_NUMERIC.
  char buffer[40];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  return ec == std::errc() ? std::string(buffer, ptr) : std::string{};
}

std::string json_escape(const std::string& text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string escaped;
  escaped.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\b': escaped += "\\b"; break;
      case '\f': escaped += "\\f"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          // RFC 8259: no control character may appear raw in a string.
          escaped += "\\u00";
          escaped += kHex[byte >> 4];
          escaped += kHex[byte & 0xf];
        } else {
          escaped += c;
        }
        break;
      }
    }
  }
  return escaped;
}

TableWriter::TableWriter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

TableWriter& TableWriter::new_row() {
  rows_.emplace_back();
  return *this;
}

TableWriter& TableWriter::cell(std::string text) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(text));
  return *this;
}

TableWriter& TableWriter::cell(double value, int precision) {
  return cell(format_fixed(value, precision));
}

TableWriter& TableWriter::cell(std::size_t value) { return cell(std::to_string(value)); }

void TableWriter::render(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& text = i < row.size() ? row[i] : std::string{};
      out << " " << std::setw(static_cast<int>(widths[i])) << text << " |";
    }
    out << "\n";
  };
  print_row(headers_);
  out << "|";
  for (const std::size_t w : widths) out << std::string(w + 2, '-') << "|";
  out << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string TableWriter::to_string() const {
  std::ostringstream out;
  render(out);
  return out.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string escaped = "\"";
  for (const char c : cell) {
    if (c == '"') escaped += "\"\"";
    else escaped += c;
  }
  escaped += '"';
  return escaped;
}

/// Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
/// strtod is too permissive here — it accepts ".5", "nan", "inf" and hex,
/// all of which are invalid JSON and would corrupt the emitted artifact.
bool is_numeric_cell(const std::string& cell) {
  std::size_t i = 0;
  const std::size_t n = cell.size();
  const auto digits = [&] {
    const std::size_t start = i;
    while (i < n && std::isdigit(static_cast<unsigned char>(cell[i]))) ++i;
    return i > start;
  };
  if (i < n && cell[i] == '-') ++i;
  if (i < n && cell[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < n && cell[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < n && (cell[i] == 'e' || cell[i] == 'E')) {
    ++i;
    if (i < n && (cell[i] == '+' || cell[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == n && n > 0;
}
}  // namespace

void TableWriter::render_json(std::ostream& out) const {
  out << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << "  {";
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      const std::string& cell = i < rows_[r].size() ? rows_[r][i] : std::string{};
      if (i) out << ", ";
      out << '"' << json_escape(headers_[i]) << "\": ";
      if (is_numeric_cell(cell)) {
        out << cell;
      } else {
        out << '"' << json_escape(cell) << '"';
      }
    }
    out << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  out << "]\n";
}

void TableWriter::render_csv(std::ostream& out) const {
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ",";
      out << csv_escape(row[i]);
    }
    out << "\n";
  };
  print_row(headers_);
  for (const auto& row : rows_) print_row(row);
}

}  // namespace caem::util
