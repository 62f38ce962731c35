// Figure 2e: energy consumed by the EESMR leader per view-change
// operation, for an equivocating leader and a stalling (no-progress)
// leader, vs the honest-SMR per-block cost. n = 15, k = f + 1.
//
// Methodology (ψ_V = ψ_W − ψ_B, §4): run a faulty cluster to B blocks,
// subtract the honest run's energy at the same block count, divide by
// the number of view changes. The "leader" is the incoming view-2
// leader, which pays the status collection and the two bootstrap rounds.
// Grid: f x scenario, with the honest baseline its own scenario so the
// three runs per f parallelize; the subtraction is a formatting pass.
#include <vector>

#include "src/exp/experiment.hpp"
#include "src/exp/record.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/sim/rng.hpp"

using namespace eesmr;
using harness::ClusterConfig;
using harness::RunResult;

int main(int argc, char** argv) {
  exp::Experiment ex("fig2e_viewchange",
                     "Fig. 2e (§5.6, n = 15, |b| = 16 bytes)", argc, argv,
                     /*default_seed=*/17);

  std::vector<std::size_t> fs = {1, 2, 3, 4, 5, 6};
  if (ex.smoke()) fs = {1, 4};
  const std::size_t blocks = ex.smoke() ? 4 : 6;
  const NodeId new_leader = 2;  // leader of view 2

  exp::Grid grid;
  grid.axis_of("f", fs);
  grid.axis("scenario", {"honest", "equivocate", "no_progress"});

  exp::Report& runs = ex.run("runs", grid, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 15;
    cfg.f = fs[c.at("f")];
    cfg.k = cfg.f + 1;
    cfg.medium = energy::Medium::kBle;
    cfg.cmd_bytes = 16;
    // Honest/faulty pairs share a seed so the ψ_W − ψ_B subtraction
    // compares like against like.
    cfg.seed = sim::derive_seed(ex.seed(), c.at("f"));
    if (c.label("scenario") == "equivocate") {
      cfg.faults.push_back({1, smr::ByzantineMode::kEquivocate, 4});
    } else if (c.label("scenario") == "no_progress") {
      cfg.faults.push_back({1, smr::ByzantineMode::kCrash, 4});
    }
    const RunResult r = exp::run_steady(c, cfg, blocks);
    exp::MetricRow row;
    row.set("k", cfg.k);
    row.set("new_leader_mj", r.node_energy_mj(new_leader));
    row.set("new_leader_mj_per_block",
            r.node_energy_per_block_mj(new_leader));
    row.set("view_changes", r.view_changes);
    row.set("run", exp::run_result_json(r));
    return row;
  });

  exp::Report table;
  table.name = "view_change_cost";
  table.grid.axis_of("f", fs);
  for (std::size_t fi = 0; fi < fs.size(); ++fi) {
    const exp::MetricRow& honest = runs.rows[fi * 3 + 0];
    const auto vc_cost = [&](std::size_t scen) {
      const exp::MetricRow& faulty = runs.rows[fi * 3 + scen];
      const double vcs = std::max(1.0, faulty.number("view_changes"));
      return (faulty.number("new_leader_mj") -
              honest.number("new_leader_mj")) /
             vcs;
    };
    exp::MetricRow row;
    row.set("k", fs[fi] + 1);
    row.set("equiv_vc_mj", vc_cost(1));
    row.set("noprog_vc_mj", vc_cost(2));
    row.set("honest_mj_per_block", honest.number("new_leader_mj_per_block"));
    table.rows.push_back(std::move(row));
  }
  ex.add_section(std::move(table)).print_table(1);

  ex.note("expected shape: the no-progress (stalling) view change is "
          "costlier than the equivocation one (equivocation proof "
          "short-circuits the blame quorum; stalling pays the blame "
          "collection and full certificate construction), and both sit "
          "above the honest per-block cost");
  return ex.finish();
}
