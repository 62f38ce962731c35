// Shared simulation-run recipes used across the figure benches: the
// steady-state run and the ψ_V = ψ_W − ψ_B view-change decomposition.
// Pure functions of their ClusterConfig (each call builds a fresh
// Cluster with its own scheduler), so they are safe to call from any
// worker thread of the experiment runner.
//
// The RunContext-taking overloads additionally wire the run's
// observability slots: the cluster traces into ctx.tracer and the
// result snapshots into ctx.registry (both no-ops when the matching
// --prom-out / --trace-out flag is absent). Benches that drive a
// Cluster by hand get the same wiring from prepare() + observe().
#pragma once

#include <cstdio>

#include "src/exp/runner.hpp"
#include "src/harness/cluster.hpp"

namespace eesmr::exp {

/// Wire this run's tracer slot into a cluster config (no-op without
/// --trace-out). Call before constructing the Cluster.
inline void prepare(const RunContext& ctx, harness::ClusterConfig& cfg) {
  cfg.tracer = ctx.tracer;
  cfg.trace_requests = ctx.trace_requests;
}

/// Snapshot a finished run into this run's registry slot (no-op without
/// --prom-out). `extra` labels distinguish multiple clusters run inside
/// one grid point — samples with identical labels overwrite.
inline void observe(const RunContext& ctx, const harness::RunResult& r,
                    const obs::Labels& extra = {}) {
  if (ctx.registry != nullptr) r.to_registry(*ctx.registry, extra);
}

/// Run an honest cluster until `blocks` commits; returns the result.
inline harness::RunResult run_steady(const harness::ClusterConfig& cfg,
                                     std::size_t blocks) {
  harness::Cluster cluster(cfg);
  harness::RunResult r =
      cluster.run_until_commits(blocks, sim::seconds(100000));
  if (!r.safety_ok()) {
    std::fprintf(stderr, "SAFETY VIOLATION in %s run\n",
                 harness::protocol_name(cfg.protocol));
  }
  return r;
}

/// run_steady with the run's observability slots wired through.
inline harness::RunResult run_steady(const RunContext& ctx,
                                     harness::ClusterConfig cfg,
                                     std::size_t blocks,
                                     const obs::Labels& extra = {}) {
  prepare(ctx, cfg);
  harness::RunResult r = run_steady(cfg, blocks);
  observe(ctx, r, extra);
  return r;
}

/// Energy attributable to one view change for `node`:
/// E(faulty run to B blocks) − E(honest run to B blocks), i.e. the
/// ψ_V = ψ_W − ψ_B decomposition of Section 4 measured empirically.
struct ViewChangeCost {
  double node_mj = 0;   ///< surcharge at `node`
  double total_mj = 0;  ///< surcharge summed over correct nodes
  std::uint64_t view_changes = 0;
};

inline ViewChangeCost view_change_cost(const harness::ClusterConfig& cfg,
                                       const harness::FaultSpec& fault,
                                       NodeId node, std::size_t blocks) {
  const harness::RunResult honest = run_steady(cfg, blocks);
  harness::ClusterConfig faulty_cfg = cfg;
  faulty_cfg.faults.push_back(fault);
  const harness::RunResult faulty = run_steady(faulty_cfg, blocks);

  ViewChangeCost out;
  out.view_changes = faulty.view_changes;
  const double per_vc =
      faulty.view_changes == 0 ? 1.0 : static_cast<double>(faulty.view_changes);
  out.node_mj =
      (faulty.node_energy_mj(node) - honest.node_energy_mj(node)) / per_vc;
  out.total_mj =
      (faulty.total_energy_mj() - honest.total_energy_mj()) / per_vc;
  return out;
}

/// view_change_cost with the observability slots wired through: both
/// runs trace (two epochs), and both snapshot into the registry under
/// a distinguishing `phase` label ("honest" / "faulty", prepended to
/// `extra`).
inline ViewChangeCost view_change_cost(const RunContext& ctx,
                                       const harness::ClusterConfig& cfg,
                                       const harness::FaultSpec& fault,
                                       NodeId node, std::size_t blocks,
                                       const obs::Labels& extra = {}) {
  const auto labeled = [&](const char* phase) {
    obs::Labels l{{"phase", phase}};
    l.insert(l.end(), extra.begin(), extra.end());
    return l;
  };
  const harness::RunResult honest =
      run_steady(ctx, cfg, blocks, labeled("honest"));
  harness::ClusterConfig faulty_cfg = cfg;
  faulty_cfg.faults.push_back(fault);
  const harness::RunResult faulty =
      run_steady(ctx, faulty_cfg, blocks, labeled("faulty"));

  ViewChangeCost out;
  out.view_changes = faulty.view_changes;
  const double per_vc =
      faulty.view_changes == 0 ? 1.0 : static_cast<double>(faulty.view_changes);
  out.node_mj =
      (faulty.node_energy_mj(node) - honest.node_energy_mj(node)) / per_vc;
  out.total_mj =
      (faulty.total_energy_mj() - honest.total_energy_mj()) / per_vc;
  return out;
}

}  // namespace eesmr::exp
