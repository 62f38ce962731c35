// Cross-validation: the Section-4 analytical ψ models against the
// discrete-event simulator's measured energies. The two were built
// independently (operation counting vs. event-by-event metering), so
// agreement on trends is strong evidence both are right.
#include <gtest/gtest.h>

#include "src/energy/analysis.hpp"
#include "src/harness/cluster.hpp"

namespace eesmr {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

double simulated_best_mj(Protocol p, std::size_t n, std::size_t f,
                         std::size_t k, std::size_t m) {
  ClusterConfig cfg;
  cfg.protocol = p;
  cfg.n = n;
  cfg.f = f;
  cfg.k = k;
  cfg.medium = energy::Medium::kBle;
  cfg.cmd_bytes = m;
  cfg.seed = 99;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(8, sim::seconds(600));
  EXPECT_GE(r.min_committed(), 8u);
  return r.energy_per_block_mj();
}

energy::SystemParams analysis_params(std::size_t n, std::size_t f,
                                     std::size_t k, std::size_t m) {
  energy::SystemParams x;
  x.n = n;
  x.f = f;
  x.k = k;
  x.m = m;
  x.comm = energy::CommMode::kKcastRing;
  x.node_medium = energy::Medium::kBle;
  x.scheme = crypto::SchemeId::kRsa1024;
  return x;
}

TEST(CrossCheck, EesmrSteadyStateWithinFactorTwoOfModel) {
  for (std::size_t k : {3u, 5u}) {
    const double sim = simulated_best_mj(Protocol::kEesmr, 10, k - 1, k, 64);
    const double model = energy::psi_eesmr(analysis_params(10, k - 1, k, 64)).best;
    EXPECT_GT(sim, model * 0.5) << "k=" << k;
    EXPECT_LT(sim, model * 2.0) << "k=" << k;
  }
}

TEST(CrossCheck, BothAgreeEesmrBeatsSyncHotStuff) {
  const std::size_t n = 9, f = 2, k = 3, m = 16;
  const double sim_ee = simulated_best_mj(Protocol::kEesmr, n, f, k, m);
  const double sim_shs = simulated_best_mj(Protocol::kSyncHotStuff, n, f, k, m);
  const auto x = analysis_params(n, f, k, m);
  const double model_ee = energy::psi_eesmr(x).best;
  const double model_shs = energy::psi_sync_hotstuff(x).best;
  EXPECT_LT(sim_ee, sim_shs);
  EXPECT_LT(model_ee, model_shs);
  // The winning margin should at least agree in "factor >= 2" terms.
  EXPECT_GT(sim_shs / sim_ee, 2.0);
  EXPECT_GT(model_shs / model_ee, 2.0);
}

TEST(CrossCheck, BothScaleLinearlyInK) {
  // Increments of per-block energy as k grows must be roughly constant
  // in both worlds.
  std::vector<double> sim, model;
  for (std::size_t k = 2; k <= 5; ++k) {
    sim.push_back(simulated_best_mj(Protocol::kEesmr, 12, k - 1, k, 16));
    model.push_back(energy::psi_eesmr(analysis_params(12, k - 1, k, 16)).best);
  }
  for (std::size_t i = 2; i < sim.size(); ++i) {
    const double sim_inc1 = sim[i - 1] - sim[i - 2];
    const double sim_inc2 = sim[i] - sim[i - 1];
    EXPECT_GT(sim_inc2, 0);
    EXPECT_NEAR(sim_inc2, sim_inc1, 0.8 * sim_inc1) << "sim step " << i;
    const double model_inc1 = model[i - 1] - model[i - 2];
    const double model_inc2 = model[i] - model[i - 1];
    EXPECT_NEAR(model_inc2, model_inc1, 0.8 * model_inc1)
        << "model step " << i;
  }
}

TEST(CrossCheck, ViewChangeSurchargeMatchesPsiVDirection) {
  // Both worlds: EESMR's view change costs more than Sync HotStuff's.
  ClusterConfig base;
  base.n = 9;
  base.f = 2;
  base.k = 3;
  base.medium = energy::Medium::kBle;
  base.cmd_bytes = 16;
  base.seed = 7;

  auto vc_cost = [&](Protocol p) {
    ClusterConfig honest_cfg = base;
    honest_cfg.protocol = p;
    Cluster honest(honest_cfg);
    const double honest_mj =
        honest.run_until_commits(6, sim::seconds(600)).total_energy_mj();
    ClusterConfig faulty_cfg = honest_cfg;
    faulty_cfg.faults = {{1, smr::ByzantineMode::kCrash, 4}};
    Cluster faulty(faulty_cfg);
    const double faulty_mj =
        faulty.run_until_commits(6, sim::seconds(600)).total_energy_mj();
    return faulty_mj - honest_mj;
  };
  const double sim_ee = vc_cost(Protocol::kEesmr);
  const double sim_shs = vc_cost(Protocol::kSyncHotStuff);
  EXPECT_GT(sim_ee, sim_shs);

  const auto x = analysis_params(9, 2, 3, 16);
  EXPECT_GT(energy::psi_eesmr(x).view_change,
            energy::psi_sync_hotstuff(x).view_change);
}

}  // namespace
}  // namespace eesmr
