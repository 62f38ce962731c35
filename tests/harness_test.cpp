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

// Snapshots share blocks with the cluster's per-replica log mirror and
// copy only what was committed since the previous one. Stepping a run in
// 1 s slices (a multiple of the 4-hop checker tick, so the simulation is
// the same) must return what one run_for returns, and a RunResult taken
// at an earlier slice must not change as the cluster truncates, re-roots
// or extends its logs.
enum class SliceCase { kSyncHotStuff, kCheckpoints, kLateJoiner };

ClusterConfig slice_config(SliceCase c) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.batch_size = 4;
  cfg.seed = 23;
  switch (c) {
    case SliceCase::kSyncHotStuff:
      cfg.protocol = Protocol::kSyncHotStuff;
      break;
    case SliceCase::kCheckpoints:
      cfg.protocol = Protocol::kSyncHotStuff;
      cfg.checkpoint_interval = 8;
      break;
    case SliceCase::kLateJoiner:
      cfg.clients = 2;
      cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
      cfg.workload.outstanding = 4;
      cfg.checkpoint_interval = 16;
      cfg.client_retry = sim::milliseconds(500);
      cfg.late_starts.push_back({3, sim::seconds(5)});
      break;
  }
  return cfg;
}

std::vector<std::vector<smr::Block>> deep_copy(const RunResult& r) {
  std::vector<std::vector<smr::Block>> out;
  for (const smr::BlockLog& log : r.logs) {
    out.emplace_back(log.begin(), log.end());
  }
  return out;
}

class SlicedSnapshots : public ::testing::TestWithParam<SliceCase> {};

TEST_P(SlicedSnapshots, MatchOneRunAndNeverChangeLater) {
  constexpr int kSlices = 10;
  const ClusterConfig cfg = slice_config(GetParam());
  Cluster whole(cfg);
  const RunResult one = whole.run_for(sim::seconds(kSlices));

  Cluster sliced(cfg);
  std::vector<RunResult> results;
  std::vector<std::vector<std::vector<smr::Block>>> copies;
  for (int i = 0; i < kSlices; ++i) {
    results.push_back(sliced.run_for(sim::seconds(1)));
    copies.push_back(deep_copy(results.back()));
  }
  for (std::size_t s = 0; s < results.size(); ++s) {
    const RunResult& r = results[s];
    ASSERT_EQ(r.logs.size(), copies[s].size());
    for (std::size_t i = 0; i < r.logs.size(); ++i) {
      ASSERT_EQ(r.logs[i].size(), copies[s][i].size())
          << "slice " << s << " node " << i;
      for (std::size_t b = 0; b < r.logs[i].size(); ++b) {
        EXPECT_EQ(r.logs[i][b], copies[s][i][b])
            << "slice " << s << " node " << i << " pos " << b;
      }
    }
  }

  const RunResult& last = results.back();
  ASSERT_EQ(last.logs.size(), one.logs.size());
  for (std::size_t i = 0; i < one.logs.size(); ++i) {
    EXPECT_EQ(last.logs[i], one.logs[i]) << "node " << i;
  }
  EXPECT_TRUE(one.safety_ok());
  EXPECT_EQ(last.safety_ok(), one.safety_ok());
  EXPECT_GT(one.min_committed(), 0u);

  // Each cluster exercises the path it is named for.
  switch (GetParam()) {
    case SliceCase::kSyncHotStuff:
      ASSERT_FALSE(last.logs[0].empty());
      EXPECT_EQ(last.logs[0].front().height, 1u);
      break;
    case SliceCase::kCheckpoints:
      // The first slice's blocks were truncated since, yet it kept them.
      EXPECT_GT(last.footprints[0].low_water_mark,
                results[0].committed_at(0));
      EXPECT_FALSE(results[0].logs[0].empty());
      break;
    case SliceCase::kLateJoiner:
      EXPECT_GE(last.footprints[3].state_transfers, 1u);
      EXPECT_TRUE(results[0].logs[3].empty());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Clusters, SlicedSnapshots,
    ::testing::Values(SliceCase::kSyncHotStuff, SliceCase::kCheckpoints,
                      SliceCase::kLateJoiner),
    [](const auto& info) {
      switch (info.param) {
        case SliceCase::kSyncHotStuff:
          return std::string("SyncHotStuff");
        case SliceCase::kCheckpoints:
          return std::string("Checkpoints");
        case SliceCase::kLateJoiner:
          return std::string("LateJoiner");
      }
      return std::string("?");
    });

}  // namespace
}  // namespace eesmr::harness
