#include "src/exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/sim/rng.hpp"

namespace eesmr::exp {

std::size_t default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

std::vector<MetricRow> run_matrix(const Grid& grid, const RunFn& fn,
                                  const RunnerOptions& opts) {
  const std::size_t count = grid.size();
  std::vector<MetricRow> rows(count);
  if (opts.artifacts != nullptr) {
    opts.artifacts->clear();
    opts.artifacts->resize(count);
  }

  const auto run_one = [&](std::size_t i) {
    RunContext ctx;
    ctx.index = i;
    ctx.seed = sim::derive_seed(opts.seed, i);
    ctx.smoke = opts.smoke;
    ctx.trace_requests = opts.trace_requests;
    ctx.grid = &grid;
    ctx.axis = grid.indices(i);
    if (opts.artifacts != nullptr) {
      if (opts.collect_registry) ctx.registry = &(*opts.artifacts)[i].registry;
      if (opts.collect_trace) ctx.tracer = &(*opts.artifacts)[i].tracer;
    }
    rows[i] = fn(ctx);
    if (ctx.registry != nullptr) {
      // Every scalar column of the row, so analytic benches (no Cluster,
      // nothing observe()d) still expose their measurements.
      for (const auto& [col, v] : rows[i].values()) {
        if (v.is_number()) {
          ctx.registry->set_gauge("eesmr_row_metric",
                                  "Scalar metric columns of the bench row",
                                  {{"column", col}}, v.as_double());
        }
      }
    }
  };

  const std::size_t threads =
      std::min(std::max<std::size_t>(1, opts.threads), count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) run_one(i);
    return rows;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        run_one(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return rows;
}

}  // namespace eesmr::exp
