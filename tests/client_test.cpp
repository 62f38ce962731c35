// Client subsystem: request/reply wire format, the f+1-identical-replies
// acceptance rule (including Byzantine replies), and the end-to-end
// submit→order→execute→reply→accept path over real clusters.
#include <gtest/gtest.h>

#include "src/harness/cluster.hpp"
#include "src/smr/node_crypto.hpp"
#include "src/smr/request.hpp"

namespace eesmr::client {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(ClientRequestWire, RoundTrips) {
  smr::ClientRequest req;
  req.client = 7;
  req.req_id = 42;
  req.op = to_bytes(std::string("set k1 v1"));
  req.sig = to_bytes(std::string("sig"));
  const auto back = smr::ClientRequest::decode(req.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->client, 7u);
  EXPECT_EQ(back->req_id, 42u);
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->sig, req.sig);
}

TEST(ClientRequestWire, ForgedSignatureRejected) {
  // A Byzantine leader can place arbitrary bytes in a block, but a
  // request the client never signed must fail commit-time verification.
  const auto keyring =
      crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 6, 1);
  smr::ClientRequest req;
  req.client = 5;
  req.req_id = 1;
  req.op = to_bytes(std::string("set a evil"));
  req.sig = to_bytes(std::string("not a real signature"));
  // A replica's unmetered check of the embedded signature.
  smr::NodeCrypto replica(0, "replica", 4, keyring, nullptr, nullptr, nullptr,
                          nullptr);
  EXPECT_FALSE(replica.verify_request(req));

  req.sig = keyring->signer(5).sign(req.preimage());
  EXPECT_TRUE(replica.verify_request(req));
  // Tampering with the op after signing invalidates it.
  req.op = to_bytes(std::string("set a good"));
  EXPECT_FALSE(replica.verify_request(req));
  // A signature from a different key does not transfer.
  req.client = 4;
  req.sig = keyring->signer(5).sign(req.preimage());
  EXPECT_FALSE(replica.verify_request(req));
}

TEST(ClientRequestWire, UntaggedCommandIsNotARequest) {
  EXPECT_FALSE(smr::ClientRequest::decode(to_bytes(std::string("set a b")))
                   .has_value());
  EXPECT_FALSE(smr::ClientRequest::decode(Bytes{}).has_value());
}

TEST(ClientReplyWire, RoundTripsAndNamesItsClient) {
  smr::ClientReply rep;
  rep.client = 6;
  rep.req_id = 9;
  rep.result = to_bytes(std::string("ok"));
  const auto back = smr::ClientReply::decode(rep.encode());
  ASSERT_TRUE(back.has_value());
  // The client id sits under the replica's signature (it is part of the
  // signed Msg::data), so replies cannot be replayed to another client
  // with a colliding req_id.
  EXPECT_EQ(back->client, 6u);
  EXPECT_EQ(back->req_id, 9u);
  EXPECT_EQ(back->result, rep.result);
}

TEST(LatencyHistogram, NearestRankQuantiles) {
  LatencyHistogram h;
  h.add(20);
  h.add(10);  // unsorted on purpose
  EXPECT_EQ(h.quantile(0.5), 10);   // ceil(0.5*2)-1 = index 0
  EXPECT_EQ(h.quantile(1.0), 20);
  EXPECT_EQ(h.quantile(0.0), 10);
  for (int i = 3; i <= 100; ++i) h.add(i * 10);
  // 100 samples 10..1000: p99 is the 99th value, not the max.
  EXPECT_EQ(h.quantile(0.99), 990);
  EXPECT_EQ(h.quantile(0.50), 500);
  EXPECT_EQ(h.max(), 1000);
}

// ---------------------------------------------------------------------------
// AckCollector under Byzantine replies (§3's f+1 rule)
// ---------------------------------------------------------------------------

TEST(AckCollector, ConflictingResultsFromFReplicasNeverAccepted) {
  const std::size_t f = 2;
  smr::AckCollector acks(f);
  // f Byzantine replicas agree on a wrong result: still below f+1.
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("evil"))).has_value());
  EXPECT_FALSE(acks.add(1, to_bytes(std::string("evil"))).has_value());
  EXPECT_FALSE(acks.accepted());
  // Two honest replies are not enough either (f+1 = 3)...
  EXPECT_FALSE(acks.add(2, to_bytes(std::string("good"))).has_value());
  EXPECT_FALSE(acks.add(3, to_bytes(std::string("good"))).has_value());
  // ...but the third honest reply crosses the threshold with the honest
  // result, never the Byzantine one.
  const auto result = acks.add(4, to_bytes(std::string("good")));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(to_string(*result), "good");
}

TEST(AckCollector, DuplicateRepliesFromOneReplicaDoNotDoubleCount) {
  smr::AckCollector acks(1);  // f = 1: need 2 identical results
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("x"))).has_value());
  // Replica 0 repeating itself must not reach acceptance alone.
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("x"))).has_value());
  EXPECT_FALSE(acks.accepted());
  // A second distinct replica does.
  EXPECT_TRUE(acks.add(1, to_bytes(std::string("x"))).has_value());
}

TEST(AckCollector, EquivocatingReplicaCountsOnlyOnce) {
  smr::AckCollector acks(1);
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("a"))).has_value());
  // The same replica "changing its mind" is ignored entirely.
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("b"))).has_value());
  EXPECT_FALSE(acks.add(1, to_bytes(std::string("b"))).has_value());
  EXPECT_FALSE(acks.accepted());
  const auto result = acks.add(2, to_bytes(std::string("b")));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(to_string(*result), "b");
}

// ---------------------------------------------------------------------------
// End-to-end clusters
// ---------------------------------------------------------------------------

ClusterConfig client_cfg(Protocol protocol, std::size_t clients) {
  ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 11;
  cfg.clients = clients;
  cfg.workload.mode = WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  cfg.workload.max_requests = 6;
  cfg.workload.gen.kind = GenSpec::Kind::kKv;
  cfg.workload.gen.kv_keys = 8;
  cfg.workload.gen.kv_read_fraction = 0.3;
  return cfg;
}

TEST(ClusterClients, EesmrClosedLoopAcceptsAllRequests) {
  Cluster cluster(client_cfg(Protocol::kEesmr, 2));
  const RunResult r = cluster.run_until_accepted(12, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.requests_submitted, 12u);
  EXPECT_EQ(r.requests_accepted, 12u);
  EXPECT_EQ(r.latency.count(), 12u);
  EXPECT_GT(r.latency.p50(), 0);
  EXPECT_LE(r.latency.p50(), r.latency.p99());
  // Acceptance requires f+1 identical signed replies.
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    EXPECT_GE(cluster.client(i).min_replies_at_accept(), cluster.config().f + 1);
  }
}

TEST(ClusterClients, SyncHotStuffServesClientsToo) {
  Cluster cluster(client_cfg(Protocol::kSyncHotStuff, 2));
  const RunResult r = cluster.run_until_accepted(12, sim::seconds(120));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.requests_accepted, 12u);
  EXPECT_EQ(r.latency.count(), 12u);
}

TEST(ClusterClients, OpenLoopPoissonDeliversAndIsDeterministic) {
  auto run = [] {
    ClusterConfig cfg = client_cfg(Protocol::kEesmr, 3);
    cfg.workload.mode = WorkloadSpec::Mode::kOpenLoop;
    cfg.workload.rate_per_sec = 40;
    cfg.workload.max_requests = 0;
    Cluster cluster(cfg);
    return cluster.run_for(sim::seconds(10));
  };
  const RunResult a = run(), b = run();
  EXPECT_TRUE(a.safety_ok());
  EXPECT_GT(a.requests_accepted, 50u);
  // Full determinism from (config, seed), clients included.
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_accepted, b.requests_accepted);
  EXPECT_EQ(a.latency.p99(), b.latency.p99());
  EXPECT_EQ(a.transmissions, b.transmissions);
}

TEST(ClusterClients, CrashedReplicaDoesNotBlockAcceptance) {
  // With one crashed replica (<= f), f+1 honest replies still arrive.
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 1);
  cfg.workload.max_requests = 4;
  harness::FaultSpec fault;
  fault.node = 3;  // not the initial leader
  fault.byz.mode = smr::ByzantineMode::kCrash;
  fault.byz.trigger = 3;
  cfg.faults.push_back(fault);
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(4, sim::seconds(300));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.requests_accepted, 4u);
}

/// State machine that always lies: models a Byzantine replica's
/// execution layer sending wrong acknowledgments.
class LyingApp final : public smr::StateMachine {
 public:
  Bytes apply(const smr::Command&) override {
    return to_bytes(std::string("LIE"));
  }
  [[nodiscard]] Bytes state_digest() const override {
    return to_bytes(std::string("lies"));
  }
};

TEST(ClusterClients, LyingReplicaCannotCorruptAcceptedResults) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 2);
  cfg.workload.max_requests = 5;
  Cluster cluster(cfg);
  LyingApp liar;
  cluster.replica(0).attach_app(&liar);  // one Byzantine executor (<= f)
  const RunResult r = cluster.run_until_accepted(10, sim::seconds(120));
  EXPECT_EQ(r.requests_accepted, 10u);
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    for (const auto& [req_id, result] : cluster.client(i).results()) {
      EXPECT_NE(to_string(result), "LIE") << "req " << req_id;
    }
  }
}

TEST(ClusterClients, RetransmissionsAreExecutedExactlyOnce) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 1);
  cfg.workload.max_requests = 5;
  cfg.workload.gen.kv_read_fraction = 0.0;  // writes only: double-apply visible
  cfg.client_retry = sim::milliseconds(40);  // aggressive retransmits
  Cluster cluster(cfg);
  RunResult r = cluster.run_until_accepted(5, sim::seconds(120));
  EXPECT_EQ(r.requests_accepted, 5u);
  EXPECT_GT(r.request_retransmissions, 0u);
  // Let stragglers commit everywhere, then check exactly-once execution.
  cluster.run_for(cluster.delta() * 10);
  for (NodeId i = 0; i < 4; ++i) {
    auto* kv = dynamic_cast<smr::KvStore*>(cluster.replica(i).app());
    ASSERT_NE(kv, nullptr);
    EXPECT_EQ(kv->applied(), 5u) << "replica " << i;
  }
}

TEST(ClusterClients, KcastRingTopologyServesClients) {
  // Clients must not shortcut the ring: Δ stays derived from the replica
  // diameter and requests/replies still flow.
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 2);
  cfg.n = 6;
  cfg.f = 2;
  cfg.k = 3;
  cfg.workload.max_requests = 3;
  Cluster cluster(cfg);
  ClusterConfig plain = cfg;
  plain.clients = 0;
  Cluster reference(plain);
  EXPECT_EQ(cluster.delta(), reference.delta());
  const RunResult r = cluster.run_until_accepted(6, sim::seconds(300));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.requests_accepted, 6u);
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    EXPECT_GE(cluster.client(i).min_replies_at_accept(), cfg.f + 1);
  }
}

TEST(ClusterClients, TrustedBaselineServesClients) {
  // The controller protocol also flows through ReplicaBase's commit
  // path, so the same request/reply plumbing applies. Every CPS node
  // pools the flooded request; exactly-once execution absorbs the
  // duplicate submissions.
  ClusterConfig cfg = client_cfg(Protocol::kTrustedBaseline, 1);
  cfg.medium = energy::Medium::k4gLte;
  cfg.workload.max_requests = 3;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(3, sim::seconds(300));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.requests_accepted, 3u);
}

TEST(ClusterClients, PartialAttachmentStillServes) {
  ClusterConfig cfg = client_cfg(Protocol::kEesmr, 2);
  cfg.client_attach = 2;  // f+1 access points per client
  cfg.workload.max_requests = 3;
  Cluster cluster(cfg);
  const RunResult r = cluster.run_until_accepted(6, sim::seconds(300));
  EXPECT_TRUE(r.safety_ok());
  EXPECT_EQ(r.requests_accepted, 6u);
}

}  // namespace
}  // namespace eesmr::client
