#include "sim/simulator.hpp"

#include <stdexcept>

namespace caem::sim {

EventId Simulator::schedule_at(double time_s, EventCallback callback) {
  if (time_s < now_s_) {
    throw std::invalid_argument("Simulator: cannot schedule in the past");
  }
  return queue_.schedule(time_s, std::move(callback));
}

EventId Simulator::schedule_in(double delay_s, EventCallback callback) {
  if (delay_s < 0.0) throw std::invalid_argument("Simulator: negative delay");
  return queue_.schedule(now_s_ + delay_s, std::move(callback));
}

std::uint64_t Simulator::run_until(double until_s) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.next_time() > until_s) break;
    auto event = queue_.pop();
    now_s_ = event.time_s;
    ++executed_;
    ++fired;
    event.callback(now_s_);
  }
  // Advance the clock to the horizon even if the queue drained earlier,
  // so repeated run_until calls observe monotone time.
  if (until_s != std::numeric_limits<double>::infinity() && now_s_ < until_s &&
      (queue_.empty() || queue_.next_time() > until_s) && !stop_requested_) {
    now_s_ = until_s;
  }
  return fired;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto event = queue_.pop();
  now_s_ = event.time_s;
  ++executed_;
  event.callback(now_s_);
  return true;
}

}  // namespace caem::sim
