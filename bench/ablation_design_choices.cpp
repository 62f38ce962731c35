// Ablations over the design choices DESIGN.md calls out:
//  (1) signature scheme inside the protocol (RSA vs ECDSA vs HMAC),
//  (2) transport: k-cast ring vs fully-connected GATT unicasts,
//  (3) equivocation fast path on/off,
//  (4) blocking vs pipelined (non-blocking) variant,
//  (5) commands in bootstrap rounds on/off,
//  (6) checkpoint batching (optimistic pre-commit, verify every c-th).
#include <string>
#include <vector>

#include "src/exp/experiment.hpp"
#include "src/exp/record.hpp"
#include "src/exp/run_helpers.hpp"

using namespace eesmr;
using harness::Cluster;
using harness::ClusterConfig;
using harness::RunResult;

int main(int argc, char** argv) {
  exp::Experiment ex("ablation_design_choices", "§3.5, §5.5, §5.6", argc,
                     argv, /*default_seed=*/30);
  const std::size_t blocks = ex.smoke() ? 4 : 8;

  // (1) Signature scheme: the leader-signs/replicas-verify pattern makes
  // verify cost dominate; RSA-1024 should win among asymmetric schemes.
  std::vector<crypto::SchemeId> schemes = {
      crypto::SchemeId::kRsa1024, crypto::SchemeId::kRsa2048,
      crypto::SchemeId::kEcdsaSecp256k1, crypto::SchemeId::kEcdsaSecp192r1,
      crypto::SchemeId::kHmacSha256};
  if (ex.smoke()) {
    schemes = {crypto::SchemeId::kRsa1024, crypto::SchemeId::kEcdsaSecp256k1,
               crypto::SchemeId::kHmacSha256};
  }
  std::vector<std::string> scheme_labels;
  scheme_labels.reserve(schemes.size());
  for (const auto s : schemes) {
    scheme_labels.emplace_back(crypto::scheme_info(s).name);
  }
  exp::Grid g1;
  g1.axis("scheme", scheme_labels);
  ex.run("signature_scheme_n10_k3", g1, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 10;
    cfg.f = 2;
    cfg.k = 3;
    cfg.medium = energy::Medium::kBle;
    cfg.scheme = schemes[c.at("scheme")];
    cfg.seed = c.seed;
    exp::MetricRow row;
    row.set("mj_per_block",
            exp::run_steady(c, cfg, blocks).energy_per_block_mj());
    return row;
  }).print_table(0);
  ex.note("expected: RSA-1024 cheapest asymmetric (verify 0.02 J); ECDSA "
          "pays ~100x more verification energy; HMAC cheapest overall but "
          "lacks transferable authentication (§2)");

  // (2) Transport: k-cast ring vs reliable GATT full mesh.
  std::vector<std::size_t> transports = {0, 3, 5, 7};
  if (ex.smoke()) transports = {0, 5};
  std::vector<std::string> transport_labels;
  transport_labels.reserve(transports.size());
  for (const std::size_t k : transports) {
    transport_labels.push_back(k == 0 ? "full_mesh_gatt"
                                      : "kcast_ring_k" + std::to_string(k));
  }
  exp::Grid g2;
  g2.axis("transport", transport_labels);
  ex.run("transport_n8", g2, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 8;
    cfg.f = 2;
    cfg.k = transports[c.at("transport")];
    cfg.medium = energy::Medium::kBle;
    cfg.seed = c.seed;
    exp::MetricRow row;
    row.set("mj_per_block",
            exp::run_steady(c, cfg, blocks).energy_per_block_mj());
    return row;
  }).print_table(0);
  ex.note("expected: k-casts win on SENDER energy (one advertisement "
          "covers k receivers, Fig 2b) and enable partially-connected "
          "deployments, but the receive-scanning cost (9.98 vs 5.3 mJ per "
          "message in the paper's calibration) makes the reliable GATT "
          "mesh cheaper in TOTAL energy at multi-packet payloads; energy "
          "grows with k either way");

  // (3) Equivocation fast path.
  exp::Grid g3;
  g3.axis("fast_path", {"on", "off"});
  ex.run("equivocation_fast_path_n7", g3, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 7;
    cfg.f = 3;
    cfg.k = 4;
    cfg.medium = energy::Medium::kBle;
    cfg.eesmr.equivocation_fast_path = c.label("fast_path") == "on";
    cfg.seed = c.seed;
    const exp::ViewChangeCost vc = exp::view_change_cost(
        c, cfg, {1, smr::ByzantineMode::kEquivocate, 4}, 2,
        ex.smoke() ? 4 : 6);
    exp::MetricRow row;
    row.set("vc_surcharge_total_mj", vc.total_mj);
    return row;
  }).print_table(0);
  ex.note("expected: the fast path saves the blame-QC round "
          "('equivocation scenario speedups', §3.5)");

  // (4) Blocking vs pipelined (non-blocking) variant.
  std::vector<std::size_t> pipelines = {1, 4, 16};
  if (ex.smoke()) pipelines = {1, 16};
  exp::Grid g4;
  g4.axis_of("pipeline", pipelines);
  ex.run("pipelining_n6", g4, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 6;
    cfg.f = 2;
    cfg.k = 3;
    cfg.eesmr.pipeline = pipelines[c.at("pipeline")];
    cfg.seed = c.seed;
    exp::prepare(c, cfg);
    Cluster cluster(cfg);
    const RunResult r =
        cluster.run_for(sim::seconds(ex.smoke() ? 10 : 40));
    exp::observe(c, r);
    exp::MetricRow row;
    row.set("blocks", r.min_committed());
    row.set("mj_per_block", r.energy_per_block_mj());
    return row;
  }).print_table(0);
  ex.note("expected: same energy per block (identical messages), higher "
          "throughput — the non-blocking variant's trade is memory, not "
          "energy (§5.6 footnote)");

  // (5) Commands in bootstrap rounds.
  exp::Grid g5;
  g5.axis("cmds_in_bootstrap", {"off", "on"});
  ex.run("bootstrap_commands_n5", g5, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 5;
    cfg.f = 2;
    cfg.k = 3;
    cfg.eesmr.cmds_in_bootstrap = c.label("cmds_in_bootstrap") == "on";
    cfg.faults = {{1, smr::ByzantineMode::kCrash, 4}};
    cfg.seed = c.seed;
    exp::prepare(c, cfg);
    Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(6, sim::seconds(600));
    exp::observe(c, r);
    exp::MetricRow row;
    row.set("blocks", r.min_committed());
    row.set("t_end_s", sim::to_seconds(r.end_time));
    row.set("safety", exp::Json(r.safety_ok()));
    return row;
  }).print_table(1);
  ex.note("expected: enabling round-1 commands recovers a little "
          "throughput around view changes at unchanged safety (§3.5 'Add "
          "commands in rounds 1 and 2')");

  // (6) Checkpoint batching: optimistic pre-commit, verify every c-th.
  std::vector<std::size_t> intervals = {0, 2, 4, 8};
  if (ex.smoke()) intervals = {0, 4};
  exp::Grid g6;
  g6.axis_of("verify_interval", intervals);
  ex.run("checkpoint_batching_n10", g6, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    cfg.n = 10;
    cfg.f = 2;
    cfg.k = 3;
    cfg.medium = energy::Medium::kBle;
    cfg.eesmr.checkpoint_interval = intervals[c.at("verify_interval")];
    cfg.seed = c.seed;
    exp::MetricRow row;
    row.set("mj_per_block",
            exp::run_steady(c, cfg, blocks).energy_per_block_mj());
    return row;
  }).print_table(0);
  ex.note("expected: verification energy amortizes across the checkpoint "
          "window ('a significant amount of energy' in the correct-leader "
          "case, §3.5); interval 0 verifies every proposal");
  return ex.finish();
}
