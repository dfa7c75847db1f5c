// bench_table1_tone — reproduces Table I (tone pulse intervals per
// channel state) and verifies, against the simulated pulse train, that
// the broadcaster's emitted duty cycles match the encoded patterns.
#include <iostream>

#include "energy/radio_energy_model.hpp"
#include "sim/simulator.hpp"
#include "tone/tone_broadcaster.hpp"
#include "tone/tone_codec.hpp"
#include "util/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace caem;
  // This table is pure protocol constants — there is nothing to
  // override, so any argument is a mistake worth failing loudly on.
  if (argc > 1) {
    std::cerr << "bench_table1_tone takes no overrides; got '" << argv[1] << "'\n";
    return 1;
  }
  std::cout << "==== Table I — tone channel states ====\n"
               "reproduces: pulse duration / interval per data-channel state\n\n";

  util::TableWriter table(
      {"state", "pulse ms", "period ms", "duty %", "measured duty %", "pulses in 10 s"});
  for (const tone::ToneState state :
       {tone::ToneState::kIdle, tone::ToneState::kReceive, tone::ToneState::kCollision}) {
    const tone::PulsePattern pattern = tone::pattern_for(state);

    // Measure the emitted duty cycle from an actual simulated pulse train.
    sim::Simulator sim;
    energy::Battery battery(100.0);
    energy::EnergyLedger ledger;
    energy::RadioPowerProfile profile;
    profile.tx_w = 1.0;  // 1 W -> tx joules == seconds on air
    energy::Radio radio(energy::RadioId::kTone, profile, &battery, &ledger);
    tone::ToneBroadcaster broadcaster(&sim, &radio);
    broadcaster.start(0.0);
    if (state != tone::ToneState::kIdle) {
      // One-shot states are re-armed every period for measurement.
      sim.schedule_at(0.0, [&](double now) { broadcaster.set_state(now, state, state); });
    }
    sim.run_until(10.0);
    radio.settle(10.0);
    const double on_air = ledger.entry(energy::RadioId::kTone, energy::RadioState::kTx);

    table.new_row()
        .cell(std::string(tone::to_string(state)))
        .cell(pattern.pulse_duration_s * 1e3, 1)
        .cell(pattern.repeating ? pattern.period_s * 1e3 : 0.0, 1)
        .cell(pattern.duty_cycle() * 100.0, 1)
        .cell(on_air / 10.0 * 100.0, 1)
        .cell(static_cast<std::size_t>(broadcaster.pulses_emitted()));
  }
  table.render(std::cout);

  // Decode check: intervals classify back to their states.
  const tone::ToneCodec codec;
  std::cout << "\ncodec round-trip: idle interval -> "
            << tone::to_string(codec.classify_interval(50e-3).value()) << ", receive interval -> "
            << tone::to_string(codec.classify_interval(10e-3).value())
            << ", worst-case acquisition "
            << codec.worst_case_acquisition_s() * 1e3 << " ms\n";
  return 0;
}
