// Execution layer tests: key-value state machine, f+1 client acks, and
// the end-to-end replica integration (identical state digests).
#include "src/smr/app.hpp"

#include <gtest/gtest.h>

#include "src/common/serde.hpp"
#include "src/harness/cluster.hpp"

namespace eesmr::smr {
namespace {

Command cmd(const std::string& text) { return Command{to_bytes(text)}; }

TEST(KvStore, SetGetDel) {
  KvStore kv;
  EXPECT_EQ(to_string(kv.apply(cmd("set soil_ph 6.5"))), "ok");
  EXPECT_EQ(to_string(kv.apply(cmd("get soil_ph"))), "6.5");
  EXPECT_EQ(to_string(kv.apply(cmd("del soil_ph"))), "ok");
  EXPECT_EQ(to_string(kv.apply(cmd("get soil_ph"))), "(nil)");
  EXPECT_EQ(to_string(kv.apply(cmd("del soil_ph"))), "(nil)");
  EXPECT_EQ(kv.applied(), 5u);
}

TEST(KvStore, IncrementCounter) {
  KvStore kv;
  EXPECT_EQ(to_string(kv.apply(cmd("inc visits"))), "1");
  EXPECT_EQ(to_string(kv.apply(cmd("inc visits"))), "2");
  EXPECT_EQ(to_string(kv.apply(cmd("get visits"))), "2");
}

TEST(KvStore, MalformedCommandsReturnErr) {
  KvStore kv;
  EXPECT_EQ(to_string(kv.apply(cmd(""))), "err");
  EXPECT_EQ(to_string(kv.apply(cmd("frobnicate"))), "err");
  EXPECT_EQ(to_string(kv.apply(cmd("set only_key"))), "err");
}

TEST(KvStore, StateDigestDeterministic) {
  KvStore a, b;
  a.apply(cmd("set x 1"));
  a.apply(cmd("set y 2"));
  b.apply(cmd("set y 2"));
  b.apply(cmd("set x 1"));
  // Same final state (different order of independent keys) -> same digest.
  EXPECT_EQ(a.state_digest(), b.state_digest());
  b.apply(cmd("set z 3"));
  EXPECT_NE(a.state_digest(), b.state_digest());
}

TEST(KvStore, SnapshotRestoreReproducesDigestExactly) {
  KvStore a;
  // Keys and values that stress the text codec: the command language
  // tokenizes on whitespace, so "values with spaces" can only enter the
  // table as separate tokens — but restore() must handle ANY table the
  // apply path can produce, including empty-string values via direct
  // snapshot transport.
  a.apply(cmd("set plot_a 6.5"));
  a.apply(cmd("set plot_b "));  // tokenizes short: err, no table change
  a.apply(cmd("inc visits"));
  a.apply(cmd("set unicode_key ☃"));
  a.apply(cmd("del plot_a"));
  a.apply(cmd("get visits"));

  KvStore b;
  b.restore(a.snapshot());
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.applied(), a.applied());  // counter rides the snapshot
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.get("visits"), a.get("visits"));

  // The restored store behaves identically going forward.
  EXPECT_EQ(a.apply(cmd("inc visits")), b.apply(cmd("inc visits")));
  EXPECT_EQ(b.state_digest(), a.state_digest());
}

TEST(KvStore, SnapshotIsDeterministicAcrossInsertionOrders) {
  KvStore a, b;
  a.apply(cmd("set x 1"));
  a.apply(cmd("set y 2"));
  b.apply(cmd("set y 2"));
  b.apply(cmd("set x 1"));
  // Same table, same op count -> byte-identical snapshots (checkpoint
  // certificates sign the snapshot hash, so this must hold).
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(KvStore, RestoreOverwritesExistingStateAtomically) {
  KvStore src;
  src.apply(cmd("set keep 1"));
  const Bytes snap = src.snapshot();

  KvStore dst;
  dst.apply(cmd("set stale 9"));
  dst.restore(snap);
  EXPECT_EQ(dst.state_digest(), src.state_digest());
  EXPECT_FALSE(dst.get("stale").has_value());

  // Malformed snapshots throw and leave the store untouched.
  KvStore guard;
  guard.apply(cmd("set survivor 1"));
  const Bytes before = guard.state_digest();
  Bytes truncated = snap;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(guard.restore(truncated), SerdeError);
  EXPECT_EQ(guard.state_digest(), before);
}

TEST(AckCollector, AcceptsAtFPlusOne) {
  AckCollector acks(2);  // f = 2 -> need 3 identical
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("ok"))).has_value());
  EXPECT_FALSE(acks.add(1, to_bytes(std::string("ok"))).has_value());
  const auto r = acks.add(2, to_bytes(std::string("ok")));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(to_string(*r), "ok");
  EXPECT_TRUE(acks.accepted());
}

TEST(AckCollector, ByzantineMinorityCannotForgeResult) {
  AckCollector acks(1);  // f = 1 -> need 2 identical
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("FORGED"))).has_value());
  EXPECT_FALSE(acks.add(1, to_bytes(std::string("ok"))).has_value());
  const auto r = acks.add(2, to_bytes(std::string("ok")));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(to_string(*r), "ok");
}

TEST(AckCollector, DuplicateReplicaIgnored) {
  AckCollector acks(1);
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("ok"))).has_value());
  EXPECT_FALSE(acks.add(0, to_bytes(std::string("ok"))).has_value());
  EXPECT_TRUE(acks.add(1, to_bytes(std::string("ok"))).has_value());
}

TEST(Execution, ReplicasConvergeOnIdenticalState) {
  harness::ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.batch_size = 1;
  harness::Cluster cluster(cfg);
  std::vector<KvStore> stores(4);
  for (NodeId i = 0; i < 4; ++i) {
    cluster.replica(i).attach_app(&stores[i]);
  }
  // Feed every replica's pool the same client commands (the leader's
  // pool actually drives proposals).
  for (NodeId i = 0; i < 4; ++i) {
    cluster.replica(i).mempool().submit(cmd("set a 1"));
    cluster.replica(i).mempool().submit(cmd("inc a"));
  }
  const auto r = cluster.run_until_commits(4, sim::seconds(60));
  ASSERT_GE(r.min_committed(), 4u);
  // All replicas applied the same commands in the same order: the two
  // commands sit in the first blocks, so every replica applied both.
  ASSERT_EQ(stores[0].get("a"), "2");
  const Bytes digest0 = stores[0].state_digest();
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(stores[i].state_digest(), digest0) << "node " << i;
  }
  // And a client matching f+1 identical acknowledgments accepts it.
  AckCollector acks(1);
  std::optional<Bytes> accepted;
  for (NodeId i = 0; i < 4 && !accepted.has_value(); ++i) {
    accepted = acks.add(i, stores[i].state_digest());
  }
  ASSERT_TRUE(accepted.has_value());
}

}  // namespace
}  // namespace eesmr::smr
