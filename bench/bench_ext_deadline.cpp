// bench_ext_deadline — extension study (the paper's future-work
// direction: "find the respective application scenarios for the two
// schemes"): a deadline-aware CAEM that keeps Scheme 2's fixed
// energy-optimal threshold but lets a sensor whose head-of-line packet
// exceeds an age deadline transmit anyway.  Sweeps the deadline and
// shows the resulting energy/delay/fairness trade-off curve between
// Scheme 2 (deadline -> infinity) and pure LEACH (deadline -> 0).
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace caem;
  bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::print_header("Extension — deadline-aware CAEM",
                      "energy/delay trade-off between Scheme 2 and pure LEACH");

  core::RunOptions options;
  options.max_sim_s = args.fast ? 60.0 : 120.0;

  // Three engine runs replace per-variant replication barriers:
  // the two endpoint protocols as single-point scenarios and the
  // deadline variant as a csi_gate_deadline_s sweep — the ROADMAP's
  // "protocol extensions as scenario axes" item (file-driven equivalent:
  // examples/scenarios/ext_deadline.scn).
  const auto make_spec = [&](const char* name, core::Protocol protocol) {
    scenario::ScenarioSpec spec;
    spec.name = name;
    spec.base_config = args.config;
    spec.base_config.traffic_rate_pps = 8.0;
    spec.base_config.initial_energy_j = 1e6;
    spec.base_config.csi_gate_deadline_s = 0.0;
    spec.base_seed = args.seed;
    spec.replications = args.reps;
    spec.options = options;
    spec.protocols = {protocol};
    return spec;
  };

  util::TableWriter table({"variant", "mJ/packet", "mean delay ms", "p95 delay ms",
                           "queue stddev", "delivery %", "overrides"});
  const auto add_row = [&](const std::string& label, const core::Replicated& summary) {
    double overrides = 0.0;
    for (const auto& run : summary.runs) {
      overrides += static_cast<double>(run.mac.deadline_overrides);
    }
    double p95 = 0.0;
    for (const auto& run : summary.runs) p95 += run.p95_delay_s;
    const auto reps = static_cast<double>(args.reps);
    table.new_row()
        .cell(label)
        .cell(summary.energy_per_packet_j.mean() * 1e3, 3)
        .cell(summary.mean_delay_s.mean() * 1e3, 1)
        .cell(p95 / reps * 1e3, 1)
        .cell(summary.queue_stddev.mean(), 2)
        .cell(summary.delivery_rate.mean() * 100.0, 1)
        .cell(overrides / reps, 0);
  };

  const scenario::ScenarioResult leach =
      scenario::run_scenario(make_spec("ext-deadline-leach", core::protocol_from_string("leach")));
  add_row("pure-leach", leach.points[0].protocols[0].replicated);

  scenario::ScenarioSpec deadline_spec =
      make_spec("ext-deadline-sweep", core::protocol_from_string("deadline"));
  const std::vector<std::string> deadlines =
      args.fast ? std::vector<std::string>{"0.5"}
                : std::vector<std::string>{"0.1", "0.25", "0.5", "1", "2"};
  deadline_spec.axes.push_back(scenario::Axis{"csi_gate_deadline_s", deadlines});
  const scenario::ScenarioResult deadline_sweep = scenario::run_scenario(deadline_spec);
  for (const scenario::PointResult& point : deadline_sweep.points) {
    add_row("deadline " + util::format_fixed(point.config.csi_gate_deadline_s, 2) + " s",
            point.protocols[0].replicated);
  }

  const scenario::ScenarioResult scheme2 =
      scenario::run_scenario(make_spec("ext-deadline-scheme2", core::protocol_from_string("scheme2")));
  add_row("caem-scheme2", scheme2.points[0].protocols[0].replicated);

  table.render(std::cout);
  std::cout << "\nexpected: energy per packet interpolates monotonically between pure\n"
               "LEACH (deadline -> 0) and Scheme 2 (deadline -> infinity), while the\n"
               "queue-stddev (fairness) column stays near pure LEACH's — the override\n"
               "removes Scheme 2's starvation.  Note that at saturating loads Scheme 2\n"
               "can show the *lowest* delay overall because it wastes no air time on\n"
               "bad channels; the deadline variant trades some of that margin for a\n"
               "bounded worst-case head-of-line wait.\n";
  return 0;
}
