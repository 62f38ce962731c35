// Deterministic-parallel run matrix executor.
//
// Independent simulations are embarrassingly parallel: each grid point
// builds its own harness::Cluster with its own single-threaded
// sim::Scheduler and its own seed (derived as a pure function of the
// base seed and the point's grid index, never of scheduling order).
// Workers pull point indices from an atomic counter and write each
// result into its own pre-allocated slot, so results always land in
// grid order and the assembled Report is byte-identical at any
// --threads N, including N=1 (which runs inline on the calling thread).
#pragma once

#include <cstdint>
#include <functional>

#include "src/exp/grid.hpp"
#include "src/exp/metrics.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace eesmr::exp {

/// Per-run observability artifacts: one slot per grid point, allocated
/// by the runner so writes land in grid order regardless of which
/// worker thread ran the point (the same slot trick the rows use — the
/// assembled exposition stays byte-identical at any --threads N).
struct RunArtifacts {
  obs::Registry registry;  ///< metric snapshot (--prom-out)
  obs::Tracer tracer;      ///< commit-path event trace (--trace-out)
};

/// Context handed to the run function of one grid point.
struct RunContext {
  std::size_t index = 0;            ///< flat grid-order index
  std::uint64_t seed = 0;           ///< sim::derive_seed(base_seed, index)
  bool smoke = false;               ///< --smoke: trimmed-down parameters
  const Grid* grid = nullptr;
  std::vector<std::size_t> axis;    ///< per-axis value indices
  /// This run's registry slot; null unless --prom-out was requested.
  /// Benches snapshot results here (exp::observe / run_steady(ctx,...)).
  obs::Registry* registry = nullptr;
  /// This run's tracer slot; null unless --trace-out was requested. Wire
  /// into ClusterConfig::tracer (exp::prepare does) to record the
  /// commit-path event stream.
  obs::Tracer* tracer = nullptr;
  /// --trace-requests: client requests to sample per run for flow-event
  /// causal tracing (exp::prepare wires it into the ClusterConfig).
  std::size_t trace_requests = 0;

  /// Value index of the named axis for this run.
  [[nodiscard]] std::size_t at(std::string_view axis_name) const {
    return axis.at(grid->axis_pos(axis_name));
  }
  [[nodiscard]] const std::string& label(std::string_view axis_name) const {
    const std::size_t a = grid->axis_pos(axis_name);
    return grid->axes()[a].labels[axis.at(a)];
  }
};

using RunFn = std::function<MetricRow(const RunContext&)>;

struct RunnerOptions {
  std::size_t threads = 1;    ///< worker threads (clamped to >= 1)
  std::uint64_t seed = 1;     ///< base seed; each run derives its own
  bool smoke = false;
  std::size_t trace_requests = 0;  ///< per-run sampled requests (flows)
  /// When non-null, resized to grid.size(); RunContext::registry /
  /// ::tracer point into slot i for run i (gated by the two flags). The
  /// runner also auto-registers every scalar metric column of each
  /// returned row into its slot registry (family eesmr_row_metric,
  /// label `column`), so even benches that never touch a Cluster expose
  /// their measurements.
  std::vector<RunArtifacts>* artifacts = nullptr;
  bool collect_registry = false;
  bool collect_trace = false;
};

/// Execute `fn` over every point of `grid` and return the rows in grid
/// order. Exceptions thrown by `fn` are captured and rethrown on the
/// calling thread after all workers drain.
std::vector<MetricRow> run_matrix(const Grid& grid, const RunFn& fn,
                                  const RunnerOptions& opts);

/// Default worker count for --threads when the flag is absent: the
/// hardware concurrency clamped to [1, 8].
std::size_t default_threads();

}  // namespace eesmr::exp
