// bench_table2_params — reproduces Table II: the physical simulation
// parameters, as configured in core::NetworkConfig, including the unit
// substitutions documented in DESIGN.md.
//
// There is nothing to simulate here, so "running on the scenario
// engine" means the config comes from the same place every sweep's
// does: a ScenarioSpec materialising its baseline grid point.  CLI
// overrides therefore share the full scenario namespace (any
// NetworkConfig key; unknown keys are fatal).
#include <iostream>
#include <string>
#include <vector>

#include "phy/abicm.hpp"
#include "scenario/scenario_spec.hpp"
#include "util/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace caem;
  scenario::ScenarioSpec spec;
  spec.name = "table2-params";
  try {
    const std::vector<std::string> tokens(argv + 1, argv + argc);
    if (!tokens.empty()) spec.apply_cli_overrides(util::Config::from_args(tokens));
  } catch (const std::exception& error) {
    std::cerr << "bad arguments: " << error.what() << "\n";
    return 1;
  }
  const core::NetworkConfig config = spec.config_at(scenario::expand_grid(spec.axes).at(0));
  std::cout << "==== Table II — physical simulation parameters ====\n"
               "reproduces: parameter values used by every figure scenario\n\n";

  util::TableWriter table({"parameter", "paper (Table II)", "this build"});
  const auto row = [&](const std::string& name, const std::string& paper,
                       const std::string& ours) {
    table.new_row().cell(name).cell(paper).cell(ours);
  };
  row("testing field", "~100 m x 100 m", util::format_fixed(config.field_size_m, 0) + " m sq");
  row("number of nodes", "100", std::to_string(config.node_count));
  row("bandwidth (ABICM modes)", "2, 1, 0.45, 0.25 Mbps", "2, 1, 0.45, 0.25 Mbps");
  row("percentage of CH", "5%", util::format_fixed(config.ch_fraction * 100, 0) + "%");
  row("tx power, data", "0.66 W", util::format_fixed(config.data_tx_w, 3) + " W");
  row("rx power, data", "0.305 W", util::format_fixed(config.data_rx_w, 3) + " W");
  row("sleep power, data", "3.5 (unit lost)", util::format_fixed(config.data_sleep_w * 1e6, 1) + " uW");
  row("tx power, tone", "92 (unit lost)", util::format_fixed(config.tone_tx_w * 1e3, 0) + " mW");
  row("rx power, tone", "36 (unit lost)", util::format_fixed(config.tone_rx_w * 1e3, 0) + " mW");
  row("packet length", "2 Kbits", util::format_fixed(config.packet_bits, 0) + " bits");
  row("sensing delay", "8 (unit lost)", util::format_fixed(config.sensing_delay_s * 1e3, 0) + " ms");
  row("contention window", "10", std::to_string(config.backoff.cw));
  row("buffer size", "50", std::to_string(config.buffer_capacity));
  row("initial energy", "10 J", util::format_fixed(config.initial_energy_j, 1) + " J");
  row("queue sampling m", "5", std::to_string(config.sample_every_m));
  row("Q_threshold", "15", std::to_string(config.arm_queue_length));
  row("burst min/max", "3 / 8", std::to_string(config.burst.min_packets) + " / " +
                                    std::to_string(config.burst.max_packets));
  row("max retransmissions", "6", std::to_string(config.backoff.max_retries));
  table.render(std::cout);

  std::cout << "\nABICM switching thresholds (substitution, see DESIGN.md):\n";
  const phy::AbicmTable modes;
  util::TableWriter mode_table({"mode", "rate", "min SNR dB"});
  for (std::size_t i = 0; i < modes.size(); ++i) {
    mode_table.new_row()
        .cell(std::string(modes.mode(i).name))
        .cell(modes.mode(i).data_rate_bps / 1e6, 3)
        .cell(modes.mode(i).min_snr_db, 1);
  }
  mode_table.render(std::cout);
  return 0;
}
