// Dissemination-equivalence and submission-policy tests: the protocol
// must be agnostic to the per-stream dissemination primitive (the
// paper's Table-1 axis), TargetedSubset client submission must make
// progress past unresponsive replicas, and the per-stream energy
// breakdown must show targeted submission beating flood-all.
#include <gtest/gtest.h>

#include <map>

#include "src/harness/cluster.hpp"

namespace eesmr {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;
using net::DisseminationPolicy;
using energy::Stream;

/// Height-keyed cross-run chain equality: every height committed (and
/// retained) by both runs carries the identical block.
void expect_same_chain(const RunResult& a, const RunResult& b) {
  std::map<std::uint64_t, const smr::Block*> canon;
  for (std::size_t node = 0; node < a.logs.size(); ++node) {
    if (!a.correct[node]) continue;
    for (const smr::Block& blk : a.logs[node]) canon[blk.height] = &blk;
  }
  for (std::size_t node = 0; node < b.logs.size(); ++node) {
    if (!b.correct[node]) continue;
    for (const smr::Block& blk : b.logs[node]) {
      const auto it = canon.find(blk.height);
      if (it == canon.end()) continue;
      EXPECT_TRUE(*it->second == blk) << "height " << blk.height;
    }
  }
}

TEST(Dissemination, SyncHsVoteChannelSweepCommitsTheSameChain) {
  // Sync HotStuff votes every height, so the vote channel is exercised
  // continuously. LocalKcast (the default), Flood and RoutedUnicast must
  // all certify and commit the identical chain in a full mesh.
  ClusterConfig base;
  base.protocol = Protocol::kSyncHotStuff;
  base.n = 5;
  base.f = 1;
  base.k = 0;  // full mesh
  base.seed = 21;

  std::vector<RunResult> runs;
  for (const DisseminationPolicy policy :
       {DisseminationPolicy{}, DisseminationPolicy::flood(),
        DisseminationPolicy::routed_unicast()}) {
    ClusterConfig cfg = base;
    cfg.channels[Stream::kVote] = policy;
    Cluster cluster(cfg);
    runs.push_back(cluster.run_until_commits(8, sim::seconds(600)));
    ASSERT_GE(runs.back().min_committed(), 8u);
    EXPECT_TRUE(runs.back().safety_ok());
  }
  expect_same_chain(runs[0], runs[1]);
  expect_same_chain(runs[0], runs[2]);
  // Unicast votes skip the flood re-broadcast: strictly less vote
  // traffic than the flooded configuration in a mesh.
  EXPECT_LT(runs[2].stream_totals(Stream::kVote).transmissions,
            runs[1].stream_totals(Stream::kVote).transmissions);
}

TEST(Dissemination, EesmrVoteChannelSweepSurvivesAViewChange) {
  // EESMR's steady state has no votes ("voting in the head"); the vote
  // stream carries view-change certify/vote messages. Crash the first
  // leader so the view change actually runs, under both flooded and
  // routed-unicast vote/control channels.
  for (const bool unicast : {false, true}) {
    ClusterConfig cfg;
    cfg.protocol = Protocol::kEesmr;
    cfg.n = 4;
    cfg.f = 1;
    cfg.k = 0;
    cfg.seed = 5;
    cfg.faults.push_back(
        {1, smr::ByzantineMode::kCrash, 5});  // leader of view 1
    if (unicast) {
      cfg.channels[Stream::kVote] = DisseminationPolicy::routed_unicast();
      cfg.channels[Stream::kControl] = DisseminationPolicy::routed_unicast();
    }
    Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(8, sim::seconds(600));
    EXPECT_GE(r.min_committed(), 8u) << "unicast=" << unicast;
    EXPECT_TRUE(r.safety_ok()) << "unicast=" << unicast;
    EXPECT_GE(r.view_changes, 1u) << "unicast=" << unicast;
  }
}

TEST(Dissemination, TargetedSubsetFailsOverPastFUnresponsiveReplicas) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 4;
  cfg.f = 1;
  cfg.k = 0;
  cfg.seed = 3;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 1;
  cfg.workload.max_requests = 6;
  cfg.client_submit = DisseminationPolicy::targeted_subset(1, 0);
  // Replica 0 — the first submission target of every client — never
  // comes up (f = 1 unresponsive replicas).
  cfg.late_starts.push_back({0, sim::seconds(10000)});
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(12, sim::seconds(1000));
  EXPECT_EQ(r.requests_accepted, 12u);
  EXPECT_TRUE(r.safety_ok());
  // Both clients had to rotate away from the dead replica. (No forward
  // assertion here: the rotation lands on replica 1, the view-1 leader,
  // which pools directly.)
  EXPECT_GE(r.request_failovers, 2u);
}

TEST(Dissemination, TargetedSubsetSubmissionUsesLessRequestEnergyThanFlood) {
  ClusterConfig base;
  base.protocol = Protocol::kEesmr;
  base.n = 7;
  base.f = 2;
  base.k = 3;  // the §5.6 k-cast ring
  base.seed = 11;
  base.clients = 2;
  base.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  base.workload.outstanding = 1;
  base.workload.max_requests = 8;

  ClusterConfig flood = base;  // default: flood-all submission
  ClusterConfig targeted = base;
  targeted.client_submit = DisseminationPolicy::targeted_subset(1, 0);

  Cluster cf(flood);
  const RunResult rf = cf.run_until_accepted(16, sim::seconds(1000));
  Cluster ct(targeted);
  const RunResult rt = ct.run_until_accepted(16, sim::seconds(1000));
  ASSERT_EQ(rf.requests_accepted, 16u);
  ASSERT_EQ(rt.requests_accepted, 16u);

  // Request-stream energy (client submission + replica relaying): the
  // rotating-subset unicast must beat flooding every request to all 7
  // replicas, in both bytes and millijoules.
  const auto req_f = rf.stream_totals_all(Stream::kRequest);
  const auto req_t = rt.stream_totals_all(Stream::kRequest);
  EXPECT_LT(req_t.total_mj(), req_f.total_mj());
  EXPECT_LT(req_t.bytes_sent, req_f.bytes_sent);
  // The contacted replica (cursor starts at replica 0) is not the
  // view-1 leader, so pooled requests were handed on to it.
  EXPECT_GE(rt.requests_forwarded, 1u);

  // The breakdown is programmatically consistent: summed stream send
  // energy equals the metered kSend category for every node.
  for (std::size_t node = 0; node < rt.meters.size(); ++node) {
    double sum = 0;
    for (const auto& s : rt.meters[node].streams()) sum += s.send_mj;
    EXPECT_NEAR(sum, rt.meters[node].millijoules(energy::Category::kSend),
                1e-9)
        << "node " << node;
  }
  // Proposal traffic exists; checkpointing is off so that stream is idle.
  EXPECT_GT(rt.stream_totals(Stream::kProposal).send_mj, 0.0);
  EXPECT_EQ(rt.stream_totals(Stream::kCheckpoint).transmissions, 0u);
}

TEST(Dissemination, LeaderHintsReaimTargetedClientsAcrossAViewChange) {
  // TargetedSubset clients across a leader crash + view change: verified
  // reply metadata re-aims each client's cursor at the current leader,
  // so post-view-change submissions reach it directly instead of landing
  // on the dead leader or relying on replica-side forwards.
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 4;
  cfg.f = 1;
  cfg.k = 0;
  cfg.seed = 17;
  cfg.clients = 2;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 1;
  cfg.workload.max_requests = 20;
  cfg.client_submit = DisseminationPolicy::targeted_subset(1, 0);
  // Leader of view 1 (replica 1) crashes in steady state; the cluster
  // view-changes to replica 2 and keeps ordering.
  cfg.faults.push_back({1, smr::ByzantineMode::kCrash, 6});

  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(40, sim::seconds(2000));

  // Full progress through the view change, and the hints fired.
  ASSERT_EQ(r.requests_accepted, 40u);
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.view_changes, 1u);
  EXPECT_GT(r.request_hints_applied, 0u);
}

}  // namespace
}  // namespace eesmr
