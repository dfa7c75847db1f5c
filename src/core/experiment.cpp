#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>

namespace caem::core {

std::vector<RunResult> parallel_runs_ordered(std::size_t result_size,
                                             const std::vector<std::size_t>& order,
                                             const std::function<RunResult(std::size_t)>& job,
                                             std::size_t threads) {
  if (!job) throw std::invalid_argument("parallel_runs_ordered: null job");
  std::vector<char> seen(result_size, 0);
  for (const std::size_t id : order) {
    if (id >= result_size) {
      throw std::invalid_argument("parallel_runs_ordered: job id " + std::to_string(id) +
                                  " out of range (result_size " + std::to_string(result_size) +
                                  ")");
    }
    if (seen[id]) {
      throw std::invalid_argument("parallel_runs_ordered: duplicate job id " +
                                  std::to_string(id));
    }
    seen[id] = 1;
  }
  std::vector<RunResult> results(result_size);
  const std::size_t count = order.size();
  if (count == 0) return results;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, count);

  // The atomic ticket counter hands out k in submission order, so job
  // order[k] starts no later than order[k+1] — exactly the drain-order
  // contract.  Each job writes only its own slot.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&]() {
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= count) return;
      try {
        results[order[k]] = job(order[k]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

Replicated fold_runs(std::vector<RunResult> runs) {
  Replicated summary;
  summary.runs = std::move(runs);
  for (const RunResult& run : summary.runs) {
    // A lifetime of -1 means the threshold was never crossed inside the
    // horizon; fold it as the horizon (a conservative lower bound).
    const double lifetime =
        run.lifetime.network_death_s >= 0.0 ? run.lifetime.network_death_s : run.sim_end_s;
    summary.lifetime_s.add(lifetime);
    const double first =
        run.lifetime.first_death_s >= 0.0 ? run.lifetime.first_death_s : run.sim_end_s;
    summary.first_death_s.add(first);
    // Delay/delivery scalars are undefined (reported as 0) when nothing
    // was delivered over the air; folding those zeros would bias the
    // replication mean, so such runs are skipped — same guard as
    // energy_per_packet_j.
    if (run.delivered_air > 0) {
      summary.energy_per_packet_j.add(run.energy_per_delivered_packet_j);
      summary.delivery_rate.add(run.delivery_rate);
      summary.mean_delay_s.add(run.mean_delay_s);
      summary.p95_delay_s.add(run.p95_delay_s);
    }
    summary.throughput_bps.add(run.throughput_bps);
    summary.queue_stddev.add(run.mean_queue_stddev);
    summary.total_consumed_j.add(run.total_consumed_j);
  }
  return summary;
}

}  // namespace caem::core
