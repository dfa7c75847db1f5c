#include "scenario/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <locale>
#include <sstream>
#include <stdexcept>

#include "util/config.hpp"
#include "util/numeric.hpp"

namespace caem::scenario {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  for (;;) {
    const auto pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

double parse_number(const std::string& key, const std::string& text) {
  const std::optional<double> value = util::parse_finite(text);
  if (!value) {
    throw std::invalid_argument("sweep axis '" + key + "': '" + text +
                                "' is not a finite number");
  }
  return *value;
}

/// Shortest default-precision formatting ("5", "12.5") so range axes
/// produce the same strings a human would type in a list.  Classic
/// locale: the strings feed config values and cache keys, so they must
/// not grow comma decimals under a localized process.
std::string format_value(double value) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << value;
  return out.str();
}

}  // namespace

std::vector<std::string> axis_key_components(const std::string& key) {
  std::vector<std::string> keys;
  for (const std::string& part : split(key, ',')) {
    const std::string component = util::trim(part);
    if (component.empty()) {
      throw std::invalid_argument("sweep axis '" + key + "': empty component key");
    }
    keys.push_back(component);
  }
  return keys;
}

void append_assignments(const Axis& axis, const std::string& value,
                        std::vector<std::pair<std::string, std::string>>& out) {
  const std::vector<std::string> keys = axis_key_components(axis.key);
  if (keys.size() == 1) {
    out.emplace_back(keys[0], value);
    return;
  }
  const std::vector<std::string> parts = split(value, '/');
  if (parts.size() != keys.size()) {
    throw std::invalid_argument("sweep axis '" + axis.key + "': value '" + value + "' has " +
                                std::to_string(parts.size()) + " component(s), expected " +
                                std::to_string(keys.size()));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string component = util::trim(parts[i]);
    if (component.empty()) {
      throw std::invalid_argument("sweep axis '" + axis.key + "': empty component in '" + value +
                                  "'");
    }
    out.emplace_back(keys[i], component);
  }
}

Axis parse_axis(const std::string& key, const std::string& spec) {
  Axis axis;
  axis.key = key;
  const bool joint = key.find(',') != std::string::npos;
  if (spec.rfind("list:", 0) == 0) {
    for (const std::string& part : split(spec.substr(5), ',')) {
      const std::string value = util::trim(part);
      if (value.empty()) {
        throw std::invalid_argument("sweep axis '" + key + "': empty value in list '" + spec +
                                    "'");
      }
      axis.values.push_back(value);
    }
    // Validate joint values eagerly (component counts, no empties) so a
    // malformed spec fails at parse time, not mid-expansion.
    if (joint) {
      std::vector<std::pair<std::string, std::string>> scratch;
      for (const std::string& value : axis.values) append_assignments(axis, value, scratch);
    }
    return axis;
  }
  if (joint) {
    throw std::invalid_argument("sweep axis '" + key +
                                "': joint axes (comma-separated keys) accept list: specs only");
  }
  if (spec.rfind("range:", 0) == 0) {
    const auto parts = split(spec.substr(6), ':');
    if (parts.size() != 3) {
      throw std::invalid_argument("sweep axis '" + key +
                                  "': expected range:start:stop:step, got '" + spec + "'");
    }
    const double start = parse_number(key, util::trim(parts[0]));
    const double stop = parse_number(key, util::trim(parts[1]));
    const double step = parse_number(key, util::trim(parts[2]));
    if (step <= 0.0 || stop < start) {
      throw std::invalid_argument("sweep axis '" + key +
                                  "': range needs step > 0 and stop >= start ('" + spec + "')");
    }
    // Inclusive endpoints with an epsilon so e.g. 5:30:5 lands on 30.
    const double steps = std::floor((stop - start) / step + 1e-9);
    if (!(steps < 1e6)) {
      throw std::invalid_argument("sweep axis '" + key + "': range expands to more than 1e6 "
                                  "values ('" + spec + "')");
    }
    const auto count = static_cast<std::size_t>(steps) + 1;
    axis.values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      axis.values.push_back(format_value(start + static_cast<double>(i) * step));
    }
    return axis;
  }
  throw std::invalid_argument("sweep axis '" + key + "': value must start with list: or range: ('" +
                              spec + "')");
}

std::size_t grid_size(const std::vector<Axis>& axes) {
  std::size_t total = 1;
  for (const Axis& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep axis '" + axis.key + "' has no values");
    }
    total *= axis.values.size();
  }
  return total;
}

std::vector<GridPoint> expand_grid(const std::vector<Axis>& axes) {
  const std::size_t total = grid_size(axes);
  std::vector<GridPoint> points;
  points.reserve(total);
  std::vector<std::size_t> picks(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    GridPoint point;
    point.index = index;
    point.assignments.reserve(axes.size());
    // Odometer decode: last axis varies fastest.
    std::size_t remainder = index;
    for (std::size_t a = axes.size(); a-- > 0;) {
      picks[a] = remainder % axes[a].values.size();
      remainder /= axes[a].values.size();
    }
    for (std::size_t a = 0; a < axes.size(); ++a) {
      // Joint axes ("k1,k2" with "v1/v2" values) expand to one
      // assignment per component key, in key order.
      append_assignments(axes[a], axes[a].values[picks[a]], point.assignments);
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::string describe(const GridPoint& point) {
  if (point.assignments.empty()) return "(baseline)";
  std::string label;
  for (const auto& [key, value] : point.assignments) {
    if (!label.empty()) label += ", ";
    label += key + "=" + value;
  }
  return label;
}

}  // namespace caem::scenario
