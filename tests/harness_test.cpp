// Harness-level tests: RunResult metrics, determinism of the simulator,
// energy accounting wiring, and cross-protocol property sweeps.
#include <gtest/gtest.h>

#include "src/harness/cluster.hpp"

namespace eesmr::harness {
namespace {

smr::Block block_at(std::uint64_t height, const std::string& tag) {
  smr::Block b;
  b.parent = smr::genesis_hash();
  b.height = height;
  b.cmds = {smr::Command{to_bytes(tag)}};
  return b;
}

TEST(RunResult, SafetyOkForMatchingPrefixes) {
  RunResult r;
  r.logs = {{block_at(1, "a"), block_at(2, "b")}, {block_at(1, "a")}};
  r.correct = {true, true};
  r.counted = {true, true};
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.min_committed(), 1u);
  EXPECT_EQ(r.max_committed(), 2u);
}

TEST(RunResult, SafetyViolationDetected) {
  RunResult r;
  r.logs = {{block_at(1, "a")}, {block_at(1, "DIFFERENT")}};
  r.correct = {true, true};
  r.counted = {true, true};
  EXPECT_FALSE(r.safety_ok());
}

TEST(RunResult, ByzantineLogsIgnoredInSafety) {
  RunResult r;
  r.logs = {{block_at(1, "a")}, {block_at(1, "DIFFERENT")}};
  r.correct = {true, false};  // the divergent node is Byzantine
  r.counted = {true, true};
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.min_committed(), 1u);
}

TEST(RunResult, EnergyPerBlock) {
  RunResult r;
  r.logs = {{block_at(1, "a"), block_at(2, "b")},
            {block_at(1, "a"), block_at(2, "b")}};
  r.correct = {true, true};
  r.counted = {true, true};
  r.meters.resize(2);
  r.meters[0].charge(energy::Category::kSend, 10.0);
  r.meters[1].charge(energy::Category::kRecv, 30.0);
  EXPECT_DOUBLE_EQ(r.total_energy_mj(), 40.0);
  EXPECT_DOUBLE_EQ(r.energy_per_block_mj(), 20.0);
}

TEST(ProtocolNames, AllNamed) {
  EXPECT_STREQ(protocol_name(Protocol::kEesmr), "EESMR");
  EXPECT_STREQ(protocol_name(Protocol::kSyncHotStuff), "SyncHotStuff");
  EXPECT_STREQ(protocol_name(Protocol::kOptSync), "OptSync");
  EXPECT_STREQ(protocol_name(Protocol::kTrustedBaseline), "TrustedBaseline");
}

TEST(Cluster, RejectsTinyClusters) {
  ClusterConfig cfg;
  cfg.n = 1;
  EXPECT_THROW(Cluster cluster(cfg), std::invalid_argument);
}

TEST(Cluster, DeltaCoversFloodDiameter) {
  ClusterConfig cfg;
  cfg.n = 12;
  cfg.k = 2;  // diameter ceil(11/2) = 6
  cfg.hop_delay = sim::milliseconds(10);
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.delta(), sim::milliseconds(70));  // (6+1) * hop
}

TEST(Cluster, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.n = 5;
    cfg.f = 2;
    cfg.k = 3;
    cfg.seed = seed;
    Cluster cluster(cfg);
    return cluster.run_until_commits(6, sim::seconds(60));
  };
  const RunResult a = run(77), b = run(77);
  ASSERT_EQ(a.min_committed(), b.min_committed());
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_DOUBLE_EQ(a.total_energy_mj(), b.total_energy_mj());
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    EXPECT_EQ(a.logs[i], b.logs[i]) << "node " << i;
  }
}

TEST(Cluster, EnergyMetersWiredToAllCategories) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(4, sim::seconds(60));
  // Leader signs; replicas verify; everyone sends/receives/hashes.
  const NodeId leader = 1;
  EXPECT_GT(r.meters[leader].millijoules(energy::Category::kSign), 0);
  EXPECT_GT(r.meters[0].millijoules(energy::Category::kVerify), 0);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_GT(r.meters[i].millijoules(energy::Category::kSend), 0);
    EXPECT_GT(r.meters[i].millijoules(energy::Category::kRecv), 0);
    EXPECT_GT(r.meters[i].millijoules(energy::Category::kHash), 0);
  }
}

// Cross-protocol sweep: every protocol must be safe and live on both
// topologies with honest nodes.
class ProtocolSweep
    : public ::testing::TestWithParam<std::tuple<Protocol, std::size_t>> {};

TEST_P(ProtocolSweep, SafeAndLiveWhenHonest) {
  const auto [protocol, k] = GetParam();
  ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 6;
  cfg.f = 2;
  cfg.k = k;
  cfg.seed = 123;
  if (protocol == Protocol::kTrustedBaseline) {
    cfg.medium = energy::Medium::k4gLte;
  }
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(5, sim::seconds(300));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolSweep,
    ::testing::Combine(::testing::Values(Protocol::kEesmr,
                                         Protocol::kSyncHotStuff,
                                         Protocol::kOptSync,
                                         Protocol::kTrustedBaseline),
                       ::testing::Values<std::size_t>(0, 3)),
    [](const auto& info) {
      return std::string(protocol_name(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace eesmr::harness
