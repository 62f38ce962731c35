// Figure 3: leader energy, EESMR vs Sync HotStuff, for honest runs and
// view changes, as f grows. n = 13, k = f + 1.
//
// The grid is deliberately fine-grained (f x protocol x scenario): the
// f = 6 runs are an order of magnitude heavier than f = 1, so folding
// the whole comparison into one run per f would serialize on the
// heaviest point. The ψ_V = ψ_W − ψ_B view-change decomposition is a
// formatting pass over the Report (faulty-run energy minus the honest
// run's at equal block count, per view change).
#include <vector>

#include "src/exp/experiment.hpp"
#include "src/exp/record.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/sim/rng.hpp"

using namespace eesmr;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

int main(int argc, char** argv) {
  exp::Experiment ex("fig3_eesmr_vs_synchs",
                     "Fig. 3 (§5.7, k = f + 1, BLE)", argc, argv,
                     /*default_seed=*/19);

  std::vector<std::size_t> fs = {1, 2, 3, 4, 5, 6};
  if (ex.smoke()) fs = {1, 3};
  const std::size_t blocks = ex.smoke() ? 4 : 6;
  const std::vector<Protocol> protocols = {Protocol::kEesmr,
                                           Protocol::kSyncHotStuff};
  const NodeId new_leader = 2;

  exp::Grid grid;
  grid.axis_of("f", fs);
  grid.axis("protocol", {"EESMR", "SyncHS"});
  grid.axis("scenario", {"honest", "crash_vc"});

  exp::Report& runs = ex.run("runs", grid, [&](const exp::RunContext& c) {
    const std::size_t f = fs[c.at("f")];
    ClusterConfig cfg;
    cfg.protocol = protocols[c.at("protocol")];
    cfg.n = 13;
    cfg.f = f;
    cfg.k = f + 1;
    cfg.medium = energy::Medium::kBle;
    cfg.cmd_bytes = 16;
    // The ψ_V = ψ_W − ψ_B subtraction compares the faulty run against
    // the honest one, so the pair shares a seed (derived from the f
    // axis, not the flat run index).
    cfg.seed = sim::derive_seed(ex.seed(), c.at("f"));
    if (c.label("scenario") == "crash_vc") {
      cfg.faults.push_back({1, smr::ByzantineMode::kCrash, 4});
    }
    const RunResult r = exp::run_steady(c, cfg, blocks);
    exp::MetricRow row;
    row.set("k", f + 1);
    row.set("leader1_mj_per_block", r.node_energy_per_block_mj(1));
    row.set("new_leader_mj", r.node_energy_mj(new_leader));
    row.set("total_mj", r.total_energy_mj());
    row.set("view_changes", r.view_changes);
    row.set("run", exp::run_result_json(r));
    return row;
  });

  // Formatting pass: per-f comparison table + headline ratios.
  const auto row_at = [&](std::size_t fi, std::size_t proto,
                          std::size_t scen) -> const exp::MetricRow& {
    return runs.rows[(fi * 2 + proto) * 2 + scen];
  };
  exp::Report table;
  table.name = "leader_energy";
  table.grid.axis_of("f", fs);
  double sum_hon_ratio = 0, sum_vc_ratio = 0;
  int vc_rows = 0;
  for (std::size_t fi = 0; fi < fs.size(); ++fi) {
    exp::MetricRow row;
    row.set("k", fs[fi] + 1);
    double vc_mj[2] = {0, 0};
    for (std::size_t p = 0; p < 2; ++p) {
      const exp::MetricRow& honest = row_at(fi, p, 0);
      const exp::MetricRow& faulty = row_at(fi, p, 1);
      const double vcs = std::max(1.0, faulty.number("view_changes"));
      vc_mj[p] = (faulty.number("new_leader_mj") -
                  honest.number("new_leader_mj")) /
                 vcs;
    }
    row.set("eesmr_honest_mj", row_at(fi, 0, 0).number("leader1_mj_per_block"));
    row.set("synchs_honest_mj", row_at(fi, 1, 0).number("leader1_mj_per_block"));
    row.set("eesmr_vc_mj", vc_mj[0]);
    row.set("synchs_vc_mj", vc_mj[1]);
    sum_hon_ratio +=
        row.number("synchs_honest_mj") / row.number("eesmr_honest_mj");
    if (vc_mj[0] > 0 && vc_mj[1] > 0) {
      sum_vc_ratio += vc_mj[0] / vc_mj[1];
      ++vc_rows;
    }
    table.rows.push_back(std::move(row));
  }
  exp::Report& tbl = ex.add_section(std::move(table));
  tbl.print_table(1);

  exp::Report summary;
  summary.name = "summary";
  exp::MetricRow srow;
  srow.set("mean_honest_ratio_synchs_over_eesmr",
           sum_hon_ratio / static_cast<double>(fs.size()));
  srow.set("paper_honest_ratio", 2.85);
  if (vc_rows > 0) {
    srow.set("mean_vc_ratio_eesmr_over_synchs",
             sum_vc_ratio / static_cast<double>(vc_rows));
    srow.set("paper_vc_ratio", 2.05);
  }
  summary.rows.push_back(srow);
  ex.add_section(std::move(summary)).print_table(2);

  ex.note("expected shape: EESMR honest-leader cost well below Sync "
          "HotStuff's (no certificates, no votes); EESMR's view change "
          "costlier (extra round + commit-certificate construction); all "
          "curves grow with k = f+1");
  return ex.finish();
}
