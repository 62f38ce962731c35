// Membership-reconfiguration conformance tier (`ctest -L certs`): the
// Savanna-style policy-generation machinery (src/smr/membership.hpp) and
// its cluster-level guarantees — committed policy blocks flip the active
// signer set at commit boundaries under every protocol, joiners bootstrap
// through checkpoints/state transfer (even mid-view-change), and a live
// join-then-leave run keeps the safety/liveness checkers green.
#include <gtest/gtest.h>

#include "src/adversary/spec.hpp"
#include "src/common/serde.hpp"
#include "src/harness/cluster.hpp"
#include "src/smr/membership.hpp"

namespace eesmr {
namespace {

using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;
using smr::MembershipPolicy;
using smr::MembershipState;
using smr::PolicyEntry;

MembershipPolicy make_policy(std::uint64_t gen, std::vector<NodeId> nodes) {
  MembershipPolicy p;
  p.generation = gen;
  for (NodeId id : nodes) p.signers.push_back({id, 1});
  return p;
}

// ---------------------------------------------------------------------------
// MembershipPolicy wire form
// ---------------------------------------------------------------------------

TEST(MembershipPolicy, EncodeDecodeRoundTrip) {
  const MembershipPolicy p = make_policy(3, {0, 2, 5, 9});
  const MembershipPolicy back = MembershipPolicy::decode(p.encode());
  EXPECT_EQ(back, p);
}

TEST(MembershipPolicy, DecodeRejectsTruncation) {
  const Bytes enc = make_policy(1, {0, 1, 2}).encode();
  for (std::size_t cut = 1; cut < enc.size(); ++cut) {
    EXPECT_THROW(MembershipPolicy::decode(
                     Bytes(enc.begin(), enc.begin() + cut)),
                 SerdeError)
        << "cut at " << cut;
  }
}

TEST(MembershipPolicy, CommandDispatchOnLeadingTag) {
  const MembershipPolicy p = make_policy(2, {1, 3});
  const auto hit = MembershipPolicy::decode_command(p.encode());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, p);
  // A non-policy command (no kPolicyTag lead) is simply not ours.
  EXPECT_FALSE(MembershipPolicy::decode_command(to_bytes("put k v")));
  // Tagged but malformed is an error, not a silent skip.
  Bytes enc = p.encode();
  enc.resize(enc.size() - 1);
  EXPECT_THROW(MembershipPolicy::decode_command(enc), SerdeError);
}

TEST(MembershipPolicy, WellFormedRules) {
  EXPECT_TRUE(make_policy(1, {0, 1, 2}).well_formed());
  EXPECT_FALSE(make_policy(1, {}).well_formed());       // empty
  EXPECT_FALSE(make_policy(1, {0, 2, 1}).well_formed());  // not ascending
  EXPECT_FALSE(make_policy(1, {0, 1, 1}).well_formed());  // duplicate
  MembershipPolicy zero_weight = make_policy(1, {0, 1});
  zero_weight.signers[1].weight = 0;
  EXPECT_FALSE(zero_weight.well_formed());
}

// ---------------------------------------------------------------------------
// MembershipState apply / history semantics
// ---------------------------------------------------------------------------

TEST(MembershipState, GenesisIsFullSetAtWeightOne) {
  const MembershipState st(4);
  EXPECT_EQ(st.generation(), 0u);
  EXPECT_EQ(st.active_count(), 4u);
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_TRUE(st.is_signer(i, 0));
    EXPECT_EQ(st.weight(i, 0), 1u);
  }
  EXPECT_FALSE(st.is_signer(4, 0));
  EXPECT_EQ(st.leader_at(5), 1u);  // round-robin over {0,1,2,3}
}

TEST(MembershipState, ApplyOnlyDirectSuccessorAndWellFormed) {
  MembershipState st(4);
  EXPECT_FALSE(st.apply(make_policy(2, {0, 1, 2})));  // gap
  EXPECT_FALSE(st.apply(make_policy(0, {0, 1, 2})));  // replay of current
  EXPECT_FALSE(st.apply(make_policy(1, {})));         // malformed
  EXPECT_EQ(st.generation(), 0u);

  ASSERT_TRUE(st.apply(make_policy(1, {0, 1, 2, 3, 4})));
  EXPECT_EQ(st.generation(), 1u);
  EXPECT_EQ(st.active_count(), 5u);
  EXPECT_TRUE(st.is_signer(4, 1));
  EXPECT_FALSE(st.is_signer(4, 0));  // old generation still queryable
  // Re-applying the same generation is a no-op, so delivery of the same
  // policy block through different paths stays idempotent.
  EXPECT_FALSE(st.apply(make_policy(1, {0, 1, 2, 3, 4})));
  // Leader rotation now covers the joiner.
  EXPECT_EQ(st.leader_at(4), 4u);
}

TEST(MembershipState, HistoryWindowEvicts) {
  MembershipState st(3);
  for (std::uint64_t g = 1; g <= MembershipState::kHistoryWindow + 2; ++g) {
    ASSERT_TRUE(st.apply(make_policy(g, {0, 1, 2})));
  }
  const std::uint64_t cur = st.generation();
  EXPECT_TRUE(st.known(cur));
  EXPECT_TRUE(st.known(cur - MembershipState::kHistoryWindow));
  EXPECT_FALSE(st.known(cur - MembershipState::kHistoryWindow - 1));
  EXPECT_FALSE(st.known(0));
  EXPECT_FALSE(st.known(cur + 1));
}

// ---------------------------------------------------------------------------
// MembershipState rules a replica applies: the recent-signer gate,
// certificate generation tags and the commit-boundary policy check
// ---------------------------------------------------------------------------

TEST(MembershipState, RecentSignerWindowSpansAFlipUntilEviction) {
  MembershipState st(4);
  EXPECT_FALSE(st.enforced(4));  // no flip, no spare: the gate is off
  EXPECT_TRUE(st.enforced(5));   // replica 4 is a spare from genesis
  EXPECT_TRUE(st.admits(4, 4));
  EXPECT_FALSE(st.admits(4, 5));
  EXPECT_TRUE(st.recent_signer(3));
  EXPECT_FALSE(st.recent_signer(4));

  // Generation 1 drops node 3: its in-flight votes still count while
  // generation 0 stays inside the window.
  ASSERT_TRUE(st.apply(make_policy(1, {0, 1, 2})));
  EXPECT_TRUE(st.enforced(4));
  EXPECT_TRUE(st.recent_signer(3));
  EXPECT_TRUE(st.admits(3, 4));
  for (std::uint64_t g = 2; g <= MembershipState::kHistoryWindow; ++g) {
    ASSERT_TRUE(st.apply(make_policy(g, {0, 1, 2})));
  }
  ASSERT_TRUE(st.known(0));  // the window's oldest generation
  EXPECT_TRUE(st.recent_signer(3));

  // One more flip evicts generation 0, and node 3 with it.
  ASSERT_TRUE(
      st.apply(make_policy(MembershipState::kHistoryWindow + 1, {0, 1, 2})));
  EXPECT_FALSE(st.known(0));
  EXPECT_FALSE(st.recent_signer(3));
  EXPECT_FALSE(st.admits(3, 4));
  EXPECT_TRUE(st.recent_signer(2));
}

TEST(MembershipState, GenerationTagIsTheLatestHoldingEverySigner) {
  MembershipState st(4);
  ASSERT_TRUE(st.apply(make_policy(1, {0, 1, 2, 5})));
  EXPECT_EQ(st.generation_for_signers({0, 1}), 1u);
  EXPECT_EQ(st.generation_for_signers({0, 5}), 1u);
  EXPECT_EQ(st.generation_for_signers({0, 3}), 0u);  // 3 left at the flip
  // No known generation holds both 3 and 5: the current one is the tag.
  EXPECT_EQ(st.generation_for_signers({3, 5}), 1u);
  EXPECT_EQ(st.generation_for_signers({7}), 1u);
  // Once generation 0 leaves the window, 3 falls back the same way.
  for (std::uint64_t g = 2; g <= MembershipState::kHistoryWindow + 1; ++g) {
    ASSERT_TRUE(st.apply(make_policy(g, {0, 1, 2, 5})));
  }
  EXPECT_EQ(st.generation_for_signers({0, 3}), st.generation());
}

TEST(MembershipState, CommitBoundaryRefusesOutOfRangeSmallOrNonSuccessor) {
  MembershipState st(4);
  constexpr std::size_t kReplicas = 5;
  constexpr std::size_t kQuorum = 3;
  // Node 5 is not a replica of a 5-node cluster.
  EXPECT_FALSE(st.apply_committed(make_policy(1, {0, 1, 5}), kReplicas,
                                  kQuorum));
  // Fewer signers than a quorum.
  EXPECT_FALSE(
      st.apply_committed(make_policy(1, {0, 1}), kReplicas, kQuorum));
  // Not the direct successor of generation 0.
  EXPECT_FALSE(
      st.apply_committed(make_policy(2, {0, 1, 2}), kReplicas, kQuorum));
  EXPECT_EQ(st.generation(), 0u);

  ASSERT_TRUE(
      st.apply_committed(make_policy(1, {0, 1, 4}), kReplicas, kQuorum));
  EXPECT_EQ(st.generation(), 1u);
  EXPECT_TRUE(st.is_signer(4, 1));
  // The same policy again (a re-proposal) is a no-op.
  EXPECT_FALSE(
      st.apply_committed(make_policy(1, {0, 1, 4}), kReplicas, kQuorum));
}

// ---------------------------------------------------------------------------
// Cluster-level: policy-generation handoff under every protocol
// ---------------------------------------------------------------------------

// One spare rides along out of the genesis signer set; a committed policy
// block admits it mid-run. The handoff must be commit-boundary clean
// under every protocol: generation advances everywhere, the chain keeps
// growing, and safety holds across certificates formed on both sides of
// the flip.
TEST(MembershipHandoff, EveryProtocolFlipsGenerationAtCommitBoundary) {
  for (const Protocol p :
       {Protocol::kEesmr, Protocol::kSyncHotStuff, Protocol::kOptSync,
        Protocol::kPbft, Protocol::kMinBft}) {
    SCOPED_TRACE(harness::protocol_name(p));
    ClusterConfig cfg;
    cfg.protocol = p;
    // Genesis active set at each protocol's replication factor for f=1;
    // the trailing node is the spare that joins.
    cfg.n = (p == Protocol::kMinBft ? 3 : 4) + 1;
    cfg.f = 1;
    cfg.spares = 1;
    cfg.checkpoint_interval = 8;
    cfg.seed = 0x90e5;
    ClusterConfig::MembershipEvent join;
    // Early enough that every protocol — the baselines clear 25 blocks
    // within ~300ms of sim time — still has most of the run ahead of it
    // on the far side of the flip.
    join.at = sim::milliseconds(100);
    for (NodeId i = 0; i < cfg.n; ++i) join.policy.signers.push_back({i, 1});
    cfg.membership_events.push_back(join);

    harness::Cluster cluster(cfg);
    const RunResult r = cluster.run_until_commits(25, sim::seconds(60));
    EXPECT_TRUE(r.safety_ok());
    EXPECT_GE(r.min_committed(), 25u);
    EXPECT_GE(r.membership_changes, 1u);
    EXPECT_EQ(r.membership_generation, 1u);
    // The joiner followed the chain as a relay and kept committing after
    // it became a signer.
    EXPECT_GT(cluster.replica(cfg.n - 1).committed_height(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Cluster-level: joiner arrives during a view change
// ---------------------------------------------------------------------------

// The nasty interleaving: the join policy commits while the joiner is
// still offline, the view-1 leader crashes right after, and the joiner
// then boots into a cluster that is mid-view-change — bootstrapping via
// checkpoint state transfer into a generation it never observed forming.
TEST(MembershipHandoff, JoinerArrivesDuringViewChange) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kSyncHotStuff;
  cfg.n = 5;
  cfg.f = 1;
  cfg.spares = 1;  // node 4
  cfg.checkpoint_interval = 8;
  cfg.seed = 0x7c1;
  ClusterConfig::MembershipEvent join;
  join.at = sim::milliseconds(200);
  for (NodeId i = 0; i < cfg.n; ++i) join.policy.signers.push_back({i, 1});
  cfg.membership_events.push_back(join);
  // Joiner offline until well after its admission committed.
  cfg.late_starts.push_back({4, sim::milliseconds(900)});
  // View-1 leader crashes for good just before the joiner boots: the
  // f=1 budget is spent on a view change the joiner lands inside.
  adversary::AdversarySpec::CrashRecover cr;
  cr.node = 1;
  cr.crash_at = sim::milliseconds(500);
  cfg.adversary.crashes.push_back(cr);

  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(150, sim::seconds(60));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_GE(r.min_committed(), 150u);
  EXPECT_GT(r.view_changes, 0u);
  EXPECT_EQ(r.membership_generation, 1u);
  // The joiner caught up across BOTH discontinuities (generation flip +
  // view change) and is committing on the live chain.
  EXPECT_GT(cluster.replica(4).committed_height(), 0u);
}

// ---------------------------------------------------------------------------
// Cluster-level: live join then leave, clients running throughout
// ---------------------------------------------------------------------------

TEST(MembershipHandoff, LiveJoinThenLeaveKeepsCheckersGreen) {
  ClusterConfig cfg;
  cfg.protocol = Protocol::kEesmr;
  cfg.n = 5;
  cfg.f = 1;
  cfg.spares = 1;  // node 4
  cfg.checkpoint_interval = 8;
  cfg.clients = 2;
  cfg.workload.max_requests = 30;
  cfg.seed = 0x10af;
  ClusterConfig::MembershipEvent join;   // gen 1: {0..4}
  join.at = sim::milliseconds(500);
  for (NodeId i = 0; i < 5; ++i) join.policy.signers.push_back({i, 1});
  ClusterConfig::MembershipEvent leave;  // gen 2: node 4 retired again
  leave.at = sim::milliseconds(1500);
  for (NodeId i = 0; i < 4; ++i) leave.policy.signers.push_back({i, 1});
  cfg.membership_events.push_back(join);
  cfg.membership_events.push_back(leave);

  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_until_commits(40, sim::seconds(60));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_TRUE(r.liveness_ok());
  EXPECT_GE(r.min_committed(), 40u);
  EXPECT_GE(r.membership_changes, 2u);
  EXPECT_EQ(r.membership_generation, 2u);
  // Client service rode through both reconfigurations.
  EXPECT_GT(r.requests_accepted, 0u);
  EXPECT_EQ(r.safety_violations, 0u);
}

// Determinism: the reconfiguration schedule is part of the seed-derived
// world — identical seeds reproduce identical handoffs, byte for byte.
TEST(MembershipHandoff, DeterministicAcrossRuns) {
  const auto run = [] {
    ClusterConfig cfg;
    cfg.protocol = Protocol::kEesmr;
    cfg.n = 5;
    cfg.f = 1;
    cfg.spares = 1;
    cfg.checkpoint_interval = 8;
    cfg.seed = 42;
    ClusterConfig::MembershipEvent join;
    join.at = sim::milliseconds(500);
    for (NodeId i = 0; i < 5; ++i) join.policy.signers.push_back({i, 1});
    cfg.membership_events.push_back(join);
    harness::Cluster cluster(cfg);
    return cluster.run_until_commits(20, sim::seconds(60));
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.bytes_transmitted, b.bytes_transmitted);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.membership_changes, b.membership_changes);
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    ASSERT_EQ(a.logs[i].size(), b.logs[i].size());
    for (std::size_t blk = 0; blk < a.logs[i].size(); ++blk) {
      EXPECT_EQ(a.logs[i][blk].encode(), b.logs[i][blk].encode());
    }
  }
}

}  // namespace
}  // namespace eesmr
