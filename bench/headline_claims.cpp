// Headline claims (§1, §5.7, conclusion):
//  * EESMR is ~2.8x more energy-efficient than Sync HotStuff in
//    failure-free runs;
//  * ~2x worse during leader changes;
//  * 33-64% total energy reduction in the steady state;
//  * 64% savings at n = 10 using BLE.
#include <algorithm>
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
  exp::Experiment ex("headline_claims", "§1 (abstract), §5.7, Conclusion",
                     argc, argv, /*default_seed=*/20);

  // Steady-state ratio across the evaluation's n = 10..13 with k = f+1.
  std::vector<std::size_t> ns = {10, 11, 12, 13};
  if (ex.smoke()) ns = {10, 13};
  const std::size_t blocks = ex.smoke() ? 4 : 8;

  // Per-n the sweep visits k = 3 and k = (n-1)/2; both protocols run
  // inside one grid point so the ratio needs no post-join.
  exp::Grid grid;
  grid.axis_of("n", ns);
  grid.axis("k_choice", {"k3", "half"});

  exp::Report& rep = ex.run("steady_state", grid,
                            [&](const exp::RunContext& c) {
    const std::size_t n = ns[c.at("n")];
    const std::size_t k = c.label("k_choice") == "k3" ? 3 : (n - 1) / 2;
    ClusterConfig cfg;
    cfg.n = n;
    cfg.f = std::min(k - 1, (n - 1) / 2);
    cfg.k = k;
    cfg.medium = energy::Medium::kBle;
    cfg.cmd_bytes = 16;
    cfg.seed = c.seed;

    ClusterConfig ee = cfg;
    ee.protocol = Protocol::kEesmr;
    ClusterConfig shs = cfg;
    shs.protocol = Protocol::kSyncHotStuff;
    const double e = exp::run_steady(c, ee, blocks, {{"protocol", "eesmr"}})
                         .energy_per_block_mj();
    const double s =
        exp::run_steady(c, shs, blocks, {{"protocol", "sync_hotstuff"}})
            .energy_per_block_mj();

    exp::MetricRow row;
    row.set("f", cfg.f);
    row.set("k", k);
    row.set("eesmr_mj_per_block", e);
    row.set("synchs_mj_per_block", s);
    row.set("ratio", s / e);
    row.set("savings_pct", (1.0 - e / s) * 100.0);
    return row;
  });
  rep.print_table(1);

  double best = 0, worst = 1e9;
  for (const exp::MetricRow& row : rep.rows) {
    best = std::max(best, row.number("savings_pct"));
    worst = std::min(worst, row.number("savings_pct"));
  }

  // View-change ratio at n = 13, k = 7 (the paper's 2.05x setting) plus
  // the Section-4 amortization bound.
  exp::Grid vc_grid;  // single point: heavy, but one run matrix entry
  exp::Report& vc = ex.run("view_change_n13_k7", vc_grid,
                           [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 13;
    cfg.f = 6;
    cfg.k = 7;
    cfg.medium = energy::Medium::kBle;
    cfg.cmd_bytes = 16;
    cfg.seed = sim::derive_seed(c.seed, 21);
    ClusterConfig ee = cfg;
    ee.protocol = Protocol::kEesmr;
    ClusterConfig shs = cfg;
    shs.protocol = Protocol::kSyncHotStuff;
    const std::size_t vc_blocks = ex.smoke() ? 4 : 6;
    const exp::ViewChangeCost ee_vc = exp::view_change_cost(
        c, ee, {1, smr::ByzantineMode::kCrash, 4}, 2, vc_blocks,
        {{"protocol", "eesmr"}});
    const exp::ViewChangeCost shs_vc = exp::view_change_cost(
        c, shs, {1, smr::ByzantineMode::kCrash, 4}, 2, vc_blocks,
        {{"protocol", "sync_hotstuff"}});
    const double per_block_gain =
        exp::run_steady(c, shs, blocks, {{"protocol", "sync_hotstuff"}})
            .energy_per_block_mj() -
        exp::run_steady(c, ee, blocks, {{"protocol", "eesmr"}})
            .energy_per_block_mj();

    exp::MetricRow row;
    row.set("eesmr_vc_total_mj", ee_vc.total_mj);
    row.set("synchs_vc_total_mj", shs_vc.total_mj);
    row.set("vc_ratio", ee_vc.total_mj / shs_vc.total_mj);
    row.set("paper_vc_ratio", 2.0);
    // N >= V*(psiV-psiV*)/(psiB*-psiB): blocks to amortize one VC.
    row.set("blocks_to_amortize_one_vc",
            (ee_vc.total_mj - shs_vc.total_mj) / per_block_gain);
    return row;
  });
  vc.print_table(2);

  exp::Report summary;
  summary.name = "summary";
  exp::MetricRow srow;
  srow.set("savings_pct_min", worst);
  srow.set("savings_pct_max", best);
  srow.set("paper_savings_range", "33-64%");
  summary.rows.push_back(std::move(srow));
  ex.add_section(std::move(summary)).print_table(0);

  ex.note("expected: ratio > 1 favors EESMR in the steady state; the "
          "bounded number of Byzantine leaders (<= f) makes the "
          "best-case-optimal trade worthwhile (Section 4)");
  return ex.finish();
}
