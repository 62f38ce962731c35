// EESMR protocol integration tests: steady-state commits, every
// view-change trigger, safety under faults, and the protocol options.
#include "src/eesmr/eesmr.hpp"

#include <gtest/gtest.h>

#include "src/harness/cluster.hpp"

namespace eesmr::harness {
namespace {

using smr::ByzantineMode;

ClusterConfig base_config(std::size_t n, std::size_t f) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = n;
  cfg.f = f;
  cfg.hop_delay = sim::milliseconds(10);
  cfg.seed = 42;
  return cfg;
}

TEST(Eesmr, HappyPathCommitsBlocks) {
  Cluster cluster(base_config(4, 1));
  const RunResult r = cluster.run_until_commits(10, sim::seconds(60));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 10u);
  EXPECT_EQ(r.view_changes, 0u);
}

TEST(Eesmr, CommitsIdenticalLogsOnAllNodes) {
  Cluster cluster(base_config(5, 2));
  const RunResult r = cluster.run_until_commits(8, sim::seconds(60));
  ASSERT_GE(r.min_committed(), 8u);
  for (std::size_t i = 1; i < 5; ++i) {
    const std::size_t common =
        std::min(r.logs[0].size(), r.logs[i].size());
    for (std::size_t b = 0; b < common; ++b) {
      EXPECT_EQ(r.logs[0][b], r.logs[i][b]) << "node " << i << " pos " << b;
    }
  }
}

TEST(Eesmr, BlocksCarryCommands) {
  ClusterConfig cfg = base_config(4, 1);
  cfg.batch_size = 3;
  cfg.cmd_bytes = 16;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(5, sim::seconds(60));
  ASSERT_GE(r.min_committed(), 5u);
  for (const smr::Block& b : r.logs[0]) {
    EXPECT_EQ(b.cmds.size(), 3u);
    EXPECT_EQ(b.cmds[0].data.size(), 16u);
  }
}

TEST(Eesmr, SteadyStateUsesOneSignaturePerBlock) {
  // The headline mechanism: O(1) signing per block (only the leader
  // signs), n-1 verifications in total.
  Cluster cluster(base_config(4, 1));
  const RunResult r = cluster.run_until_commits(10, sim::seconds(60));
  ASSERT_GE(r.min_committed(), 10u);
  // Leader (node 1 for view 1 with round-robin v % n): sign count ≈
  // blocks (plus a tiny constant). Replicas sign nothing in steady state.
  const NodeId leader = 1;
  EXPECT_LE(r.meters[leader].ops(energy::Category::kSign),
            r.logs[leader].size() + 3);
  for (NodeId i = 0; i < 4; ++i) {
    if (i == leader) continue;
    EXPECT_EQ(r.meters[i].ops(energy::Category::kSign), 0u) << "node " << i;
    // Each replica verifies exactly one signature per proposal.
    EXPECT_LE(r.meters[i].ops(energy::Category::kVerify),
              r.logs[i].size() + 4);
  }
}

TEST(Eesmr, RunsOnKcastRingTopology) {
  ClusterConfig cfg = base_config(7, 2);
  cfg.k = 3;  // partially connected: flood diameter 2
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 6u);
}

TEST(Eesmr, CrashedLeaderTriggersViewChangeAndRecovers) {
  ClusterConfig cfg = base_config(4, 1);
  cfg.faults = {{1, ByzantineMode::kCrash, 5}};  // node 1 leads view 1
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(8, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GE(r.min_committed(), 8u);  // liveness restored in view 2
}

TEST(Eesmr, EquivocatingLeaderDetectedAndReplaced) {
  ClusterConfig cfg = base_config(4, 1);
  cfg.faults = {{1, ByzantineMode::kEquivocate, 5}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(8, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GE(r.min_committed(), 8u);
  // At least one correct node must have seen the conflict.
  std::uint64_t detections = 0;
  for (NodeId i : {0u, 2u, 3u}) {
    detections += cluster.eesmr(i).equivocations_detected();
  }
  EXPECT_GE(detections, 1u);
}

TEST(Eesmr, SelectiveEquivocationStillDetectedViaFlooding) {
  ClusterConfig cfg = base_config(5, 2);
  cfg.faults = {{1, ByzantineMode::kEquivocateSelective, 4}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GE(r.min_committed(), 6u);
}

TEST(Eesmr, SurvivesMultipleFaults) {
  // n = 7, f = 3: crash one leader, equivocate another.
  ClusterConfig cfg = base_config(7, 3);
  // Node 1 (view-1 leader) crashes; node 2 (view-2 leader) equivocates
  // once it reaches round 5 of its own view.
  cfg.faults = {{1, ByzantineMode::kCrash, 4},
                {2, ByzantineMode::kEquivocate, 5}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(600));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 6u);
  EXPECT_GE(r.view_changes, 2u);
}

TEST(Eesmr, SilentNonLeaderDoesNotStallProgress) {
  ClusterConfig cfg = base_config(5, 2);
  cfg.faults = {{3, ByzantineMode::kCrash, 3}};  // node 3 never leads early
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(8, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 8u);
  EXPECT_EQ(r.view_changes, 0u);
}

TEST(Eesmr, AdversarialMaxDelaysPreserveSafetyAndLiveness) {
  ClusterConfig cfg = base_config(4, 1);
  cfg.adversarial_delays = true;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 6u);
  EXPECT_EQ(r.view_changes, 0u);  // an honest leader is never blamed
}

TEST(Eesmr, FastPathEquivocationViewChangeIsQuicker) {
  auto run_vc = [&](bool fast) {
    ClusterConfig cfg = base_config(4, 1);
    cfg.eesmr.equivocation_fast_path = fast;
    cfg.faults = {{1, ByzantineMode::kEquivocate, 4}};
    Cluster cluster(cfg);
    RunResult r = cluster.run_until_commits(6, sim::seconds(240));
    EXPECT_TRUE(r.safety_ok());
    EXPECT_GE(r.min_committed(), 6u);
    return r.end_time;
  };
  // Both reach the target; the fast path should not be slower.
  EXPECT_LE(run_vc(true), run_vc(false) + sim::milliseconds(1));
}

TEST(Eesmr, NonBlockingPipelineCommitsFaster) {
  auto throughput = [&](std::size_t pipeline) {
    ClusterConfig cfg = base_config(4, 1);
    cfg.eesmr.pipeline = pipeline;
    Cluster cluster(cfg);
    const RunResult r = cluster.run_for(sim::seconds(20));
    EXPECT_TRUE(r.safety_ok());
    return r.min_committed();
  };
  const std::size_t blocking = throughput(1);
  const std::size_t pipelined = throughput(8);
  EXPECT_GT(blocking, 0u);
  EXPECT_GT(pipelined, 2 * blocking);
}

TEST(Eesmr, CheckpointBatchingSavesVerificationEnergy) {
  // §3.5 "Batching optimization": optimistic pre-commit without per-block
  // signature checks; one verification per checkpoint interval.
  auto verify_ops = [&](std::size_t interval) {
    ClusterConfig cfg = base_config(4, 1);
    cfg.eesmr.checkpoint_interval = interval;
    Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(12, sim::seconds(120));
    EXPECT_TRUE(r.safety_ok());
    EXPECT_GE(r.min_committed(), 12u);
    std::uint64_t total = 0;
    for (const auto& m : r.meters) total += m.ops(energy::Category::kVerify);
    return total;
  };
  const std::uint64_t baseline = verify_ops(0);
  const std::uint64_t batched = verify_ops(4);
  EXPECT_LT(batched, baseline / 2) << "baseline=" << baseline
                                   << " batched=" << batched;
}

TEST(Eesmr, CheckpointBatchingStillRecoversFromFaults) {
  ClusterConfig cfg = base_config(4, 1);
  cfg.eesmr.checkpoint_interval = 4;
  cfg.faults = {{1, ByzantineMode::kCrash, 5}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(8, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GE(r.min_committed(), 8u);
}

TEST(Eesmr, CommandsInBootstrapOptionKeepsSafety) {
  ClusterConfig cfg = base_config(4, 1);
  cfg.eesmr.cmds_in_bootstrap = true;
  cfg.faults = {{1, ByzantineMode::kCrash, 4}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(6, sim::seconds(240));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 6u);
}

TEST(Eesmr, ConsecutiveByzantineLeaders) {
  // Leaders of views 1 and 2 both crash -> two back-to-back VCs.
  ClusterConfig cfg = base_config(7, 3);
  cfg.faults = {{1, ByzantineMode::kCrash, 3},
                {2, ByzantineMode::kCrash, 3}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(5, sim::seconds(600));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 2u);
  EXPECT_GE(r.min_committed(), 5u);
}

TEST(Eesmr, EnergyPerBlockIndependentOfNWithFixedK) {
  // §5.6 "energy cost of EESMR is independent of n in the best case".
  auto per_node_energy = [&](std::size_t n) {
    ClusterConfig cfg = base_config(n, 2);
    cfg.k = 3;
    Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(6, sim::seconds(600));
    EXPECT_GE(r.min_committed(), 6u);
    return r.energy_per_block_mj() / static_cast<double>(n);
  };
  const double e8 = per_node_energy(8);
  const double e12 = per_node_energy(12);
  EXPECT_NEAR(e8, e12, 0.15 * e8);
}

// Property sweep: safety and liveness hold across (n, f, seed) grid with
// a Byzantine leader.
class EesmrSweep : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::uint64_t, int>> {};

TEST_P(EesmrSweep, SafetyAndLivenessUnderByzantineLeader) {
  const auto [n, seed, mode] = GetParam();
  ClusterConfig cfg = base_config(n, (n - 1) / 2);
  cfg.seed = seed;
  cfg.faults = {{1,
                 mode == 0 ? ByzantineMode::kCrash
                           : ByzantineMode::kEquivocate,
                 4}};
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(5, sim::seconds(600));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 5u);
  EXPECT_GE(r.view_changes, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EesmrSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 5, 7),
                       ::testing::Values<std::uint64_t>(1, 99, 12345),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace eesmr::harness
