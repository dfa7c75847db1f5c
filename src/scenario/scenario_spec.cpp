#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <stdexcept>

#include "util/numeric.hpp"

namespace caem::scenario {

namespace {

std::vector<core::Protocol> parse_protocols(const std::string& list) {
  std::vector<core::Protocol> protocols;
  std::string::size_type start = 0;
  for (;;) {
    const auto pos = list.find(',', start);
    const std::string token = util::trim(
        pos == std::string::npos ? list.substr(start) : list.substr(start, pos - start));
    if (token == "all") {
      const std::vector<core::Protocol> paper = core::paper_protocols();
      protocols.insert(protocols.end(), paper.begin(), paper.end());
    } else if (!token.empty()) {
      try {
        protocols.push_back(core::protocol_from_string(token));
      } catch (const std::invalid_argument& error) {
        // The registry already enumerates the valid names; add the key
        // context so a scenario-file typo points at its own line.
        throw std::invalid_argument(std::string("scenario.protocols: ") + error.what());
      }
    }
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  if (protocols.empty()) {
    throw std::invalid_argument("scenario.protocols: empty protocol list '" + list + "'");
  }
  return protocols;
}

double parse_double(const std::string& key, const std::string& value) {
  const std::optional<double> parsed = util::parse_finite(value);
  if (!parsed) {
    throw std::invalid_argument("scenario key '" + key + "' is not a finite number: '" + value +
                                "'");
  }
  return *parsed;
}

bool parse_bool(const std::string& key, const std::string& value) {
  std::string lowered = value;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lowered == "1" || lowered == "true" || lowered == "yes" || lowered == "on") return true;
  if (lowered == "0" || lowered == "false" || lowered == "no" || lowered == "off") return false;
  throw std::invalid_argument("scenario key '" + key + "' is not a boolean: '" + value + "'");
}

}  // namespace

void ScenarioSpec::apply_entry(const std::string& key, const std::string& value) {
  if (key.rfind("scenario.", 0) == 0) {
    const std::string field = key.substr(9);
    if (field == "name") {
      name = value;
    } else if (field == "protocols") {
      protocols = parse_protocols(value);
    } else if (field == "seed") {
      base_seed = util::parse_uint_key(key, value);
    } else if (field == "reps") {
      replications = util::parse_uint_key(key, value);
      if (replications < 1) throw std::invalid_argument("scenario.reps must be >= 1");
    } else if (field == "max_sim_s") {
      options.max_sim_s = parse_double(key, value);
      if (options.max_sim_s <= 0.0) throw std::invalid_argument("scenario.max_sim_s must be > 0");
    } else if (field == "run_to_death") {
      options.run_to_death = parse_bool(key, value);
    } else if (field == "threads") {
      threads = util::parse_uint_key(key, value, kMaxThreads);
    } else {
      throw std::invalid_argument("unknown scenario key '" + key + "'");
    }
    return;
  }
  if (key.rfind("sweep.", 0) == 0) {
    const std::string axis_key = key.substr(6);
    if (axis_key.empty()) throw std::invalid_argument("sweep axis with empty key");
    Axis axis = parse_axis(axis_key, value);
    // Replace an existing axis (CLI override of a file axis), else add.
    const auto it = std::find_if(axes.begin(), axes.end(),
                                 [&](const Axis& a) { return a.key == axis_key; });
    if (it != axes.end()) {
      *it = std::move(axis);
    } else {
      axes.push_back(std::move(axis));
    }
    return;
  }
  if (key.rfind("output.", 0) == 0) {
    const std::string field = key.substr(7);
    if (field == "csv") {
      csv_path = value;
    } else if (field == "json") {
      json_path = value;
    } else if (field == "trace") {
      trace_dir = value;
    } else if (field == "trace_points") {
      trace_points = util::parse_uint_key(key, value);
      if (trace_points < 2) throw std::invalid_argument("output.trace_points must be >= 2");
    } else {
      throw std::invalid_argument("unknown output key '" + key + "' (expected output.csv, "
                                  "output.json, output.trace or output.trace_points)");
    }
    return;
  }
  base_overrides.set(key, value);
}

void ScenarioSpec::validate_base_overrides() const {
  // Building a grid point applies base + axis assignments to a
  // NetworkConfig; unknown keys surface through Config::unconsumed.
  // The first point is assembled directly (O(axes)) — expanding the
  // whole cartesian grid just to validate would be wasteful for large
  // sweeps.
  GridPoint first;
  first.assignments.reserve(axes.size());
  for (const Axis& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep axis '" + axis.key + "' has no values");
    }
    append_assignments(axis, axis.values.front(), first.assignments);
  }
  (void)config_at(first);
}

ScenarioSpec ScenarioSpec::from_config(const util::Config& config) {
  ScenarioSpec spec;
  for (const auto& [key, value] : config.entries()) spec.apply_entry(key, value);
  // Axes accumulate in file order via entries() (sorted keys) — keep
  // that sorted order explicit so expansion is deterministic.
  std::sort(spec.axes.begin(), spec.axes.end(),
            [](const Axis& a, const Axis& b) { return a.key < b.key; });
  spec.validate_base_overrides();
  return spec;
}

ScenarioSpec ScenarioSpec::from_file(const std::string& path) {
  return from_config(util::Config::from_file(path));
}

void ScenarioSpec::apply_cli_overrides(const util::Config& overrides) {
  for (const auto& [key, value] : overrides.entries()) apply_entry(key, value);
  std::sort(axes.begin(), axes.end(),
            [](const Axis& a, const Axis& b) { return a.key < b.key; });
  validate_base_overrides();
}

core::NetworkConfig ScenarioSpec::config_at(const GridPoint& point) const {
  util::Config merged = base_overrides;
  for (const auto& [key, value] : point.assignments) merged.set(key, value);
  core::NetworkConfig config = base_config;
  config.apply_overrides(merged);
  const std::vector<std::string> unknown = merged.unconsumed();
  if (!unknown.empty()) {
    std::string message = "unknown config key(s):";
    for (const std::string& key : unknown) message += " '" + key + "'";
    throw std::invalid_argument(message);
  }
  return config;
}

std::size_t ScenarioSpec::total_jobs() const {
  return grid_size(axes) * protocols.size() * replications;
}

}  // namespace caem::scenario
