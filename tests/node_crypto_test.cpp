// smr::NodeCrypto without a replica: every sign, verify, fold and hash is
// charged at the cost model's mJ in its category and counted once as
// (component, op, site); share and directory signing; a node without a
// meter or profiler charges and counts nothing; the certificate check's
// verification caches, including that a cached individual signature is
// still confirmed exactly and stores no memo verdict.
#include "src/smr/node_crypto.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "src/crypto/fingerprint.hpp"
#include "src/crypto/sha256.hpp"
#include "src/energy/cost_model.hpp"

namespace eesmr::smr {
namespace {

using energy::Category;

constexpr std::size_t kN = 4;
constexpr auto kScheme = crypto::SchemeId::kRsa1024;

/// Keys for replicas 0-3 and client 4, the aggregate directory, and
/// replica 0's metered crypto (`memo` is attached when `with_memo`).
struct Node {
  explicit Node(bool with_memo = false, const char* component = "replica")
      : crypto(0, component, kN, ring, agg, &meter, &prof,
               with_memo ? &memo : nullptr) {}

  /// How often (op, site) was counted under `component`.
  std::uint64_t count(const char* op, const char* site,
                      const char* component = "replica") const {
    const auto ops = prof.snapshot().crypto_ops;
    const auto it = ops.find(std::array<std::string, 3>{component, op, site});
    return it == ops.end() ? 0 : it->second;
  }
  /// Crypto ops counted in all.
  std::uint64_t counted() const {
    std::uint64_t n = 0;
    for (const auto& [key, c] : prof.snapshot().crypto_ops) n += c;
    return n;
  }

  std::shared_ptr<crypto::Keyring> ring =
      crypto::Keyring::simulated(kScheme, kN + 1, 7);
  std::shared_ptr<crypto::AggKeyring> agg =
      crypto::AggKeyring::simulated(kN, 9);
  energy::Meter meter;
  prof::Profiler prof;
  crypto::VerifyMemo memo;
  NodeCrypto crypto;
};

Bytes text(const char* s) { return to_bytes(std::string(s)); }

/// Replica `author`'s signed kVote over `block`.
Msg vote(const Node& node, NodeId author, const Bytes& block) {
  Msg m;
  m.type = MsgType::kVote;
  m.view = 1;
  m.author = author;
  m.data = block;
  m.sig = node.ring->signer(author).sign(m.preimage());
  return m;
}

TEST(NodeCrypto, DirectorySignIsChargedAndCounted) {
  Node node;
  const Bytes msg = text("m");
  const Bytes sig = node.crypto.sign(msg, /*share=*/false, "vote");
  EXPECT_TRUE(node.ring->verify(0, msg, sig));
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kSign),
                   energy::sign_energy_mj(kScheme));
  EXPECT_EQ(node.meter.ops(Category::kSign), 1u);
  EXPECT_EQ(node.count("sign", "vote"), 1u);
  EXPECT_EQ(node.counted(), 1u);
}

TEST(NodeCrypto, ShareSignIsAnAggregateShare) {
  Node node;
  const Bytes msg = text("m");
  const Bytes share = node.crypto.sign(msg, /*share=*/true, "checkpoint");
  EXPECT_EQ(share.size(), crypto::kAggSignatureBytes);
  EXPECT_TRUE(node.agg->verify_share(0, msg, share));
  EXPECT_FALSE(node.ring->verify(0, msg, share));
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kSign),
                   energy::agg_sign_energy_mj());
  EXPECT_EQ(node.count("sign", "checkpoint"), 1u);
}

TEST(NodeCrypto, UnmeteredSignChargesAndCountsNothing) {
  Node node;
  const Bytes sig =
      node.crypto.sign(text("m"), false, "checkpoint", /*metered=*/false);
  EXPECT_TRUE(node.ring->verify(0, text("m"), sig));
  EXPECT_EQ(node.meter.total_millijoules(), 0.0);
  EXPECT_EQ(node.counted(), 0u);
}

TEST(NodeCrypto, VerifyChargesHitOrMissAndCountsAtItsSite) {
  Node node(/*with_memo=*/true);
  const Bytes msg = text("m");
  const Bytes sig = node.ring->signer(2).sign(msg);
  EXPECT_TRUE(node.crypto.verify(2, msg, sig, false, "proposal"));
  // A memo hit saves host time only: the modeled verify is charged again.
  EXPECT_TRUE(node.crypto.verify(2, msg, sig, false, "proposal"));
  EXPECT_EQ(node.memo.hits(), 1u);
  EXPECT_FALSE(node.crypto.verify(3, msg, sig, false, "proposal"));
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kVerify),
                   3 * energy::verify_energy_mj(kScheme));
  EXPECT_EQ(node.count("verify", "proposal"), 3u);

  // A share check is priced as a one-signer aggregate verification.
  const Bytes share = node.agg->share(1, msg);
  EXPECT_TRUE(node.crypto.verify(1, msg, share, /*share=*/true, "reply"));
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kVerify),
                   3 * energy::verify_energy_mj(kScheme) +
                       energy::agg_verify_energy_mj(1));
  EXPECT_EQ(node.count("verify", "reply"), 1u);
}

TEST(NodeCrypto, VerifyMsgAndRequestCountAtTheirSites) {
  Node node;
  EXPECT_TRUE(node.crypto.verify_msg(vote(node, 1, Bytes(32, 0xab)), false,
                                     std::nullopt));
  ClientRequest req;
  req.client = 4;
  req.req_id = 1;
  req.op = text("put k v");
  req.sig = node.ring->signer(4).sign(req.preimage());
  EXPECT_TRUE(node.crypto.verify_request(req));
  req.op = text("put k w");
  EXPECT_FALSE(node.crypto.verify_request(req));
  EXPECT_EQ(node.count("verify", "vote"), 1u);
  EXPECT_EQ(node.count("verify", "request"), 2u);
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kVerify),
                   3 * energy::verify_energy_mj(kScheme));
}

TEST(NodeCrypto, OnlyAValidRememberedSignatureEntersTheCache) {
  Node node;
  const Bytes msg = text("m");
  const Bytes sig = node.ring->signer(1).sign(msg);
  const Bytes forged(sig.size(), 0);
  EXPECT_TRUE(node.crypto.verify(1, msg, sig, false, "vote", 5));
  EXPECT_FALSE(node.crypto.verify(1, msg, forged, false, "vote", 5));
  EXPECT_TRUE(node.crypto.verify(2, msg, node.ring->signer(2).sign(msg),
                                 false, "vote"));
  EXPECT_EQ(node.crypto.certs().sig_height(crypto::fingerprint(1, msg, sig)),
            5u);
  EXPECT_FALSE(node.crypto.certs()
                   .sig_height(crypto::fingerprint(1, msg, forged))
                   .has_value());
  EXPECT_FALSE(node.crypto.certs()
                   .sig_height(crypto::fingerprint(
                       2, msg, node.ring->signer(2).sign(msg)))
                   .has_value());
}

TEST(NodeCrypto, IndividualCertChargesOnlyUncachedSignatures) {
  Node node;
  MembershipState membership(kN);
  const Bytes block(32, 0xab);
  const Msg v1 = vote(node, 1, block);
  const Msg v2 = vote(node, 2, block);
  ASSERT_TRUE(node.crypto.verify_msg(v1, false, /*remember_at=*/0));
  const QuorumCert qc = QuorumCert::combine({v1, v2});
  EXPECT_TRUE(node.crypto.verify_cert(qc, qc.preimage(),
                                      CertScheme::kIndividual, 2, membership,
                                      0, "vote"));
  // Two message verifies in all: v1's on arrival and v2's at the tally.
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kVerify),
                   2 * energy::verify_energy_mj(kScheme));
  EXPECT_EQ(node.count("verify", "vote"), 2u);
  EXPECT_EQ(node.crypto.certs().hits(), 1u);
  // Below quorum, or in the other scheme's form: rejected.
  EXPECT_FALSE(node.crypto.verify_cert(qc, qc.preimage(),
                                       CertScheme::kIndividual, 3, membership,
                                       0, "vote"));
  EXPECT_FALSE(node.crypto.verify_cert(qc, qc.preimage(),
                                       CertScheme::kAggregate, 2, membership,
                                       0, "vote"));
}

TEST(NodeCrypto, CachedSignatureIsConfirmedWithoutAMemoVerdict) {
  // The verified-signature cache is matched by fingerprint: a hit skips
  // the modeled charge, not the exact check, and that check stores no
  // verdict in the memo (record=false). A signature the cache does not
  // answer is checked through the memo and stored.
  Node node(/*with_memo=*/true);
  MembershipState membership(kN);
  const Bytes block(32, 0xab);
  const QuorumCert qc = QuorumCert::combine(
      {vote(node, 1, block), vote(node, 2, block)});
  const Bytes preimage = qc.preimage();
  const auto& [a1, s1] = qc.sigs[0];
  const auto& [a2, s2] = qc.sigs[1];
  const std::uint64_t fp1 = crypto::fingerprint(a1, preimage, s1);
  const std::uint64_t fp2 = crypto::fingerprint(a2, preimage, s2);
  node.crypto.certs().remember_sig(fp1, 0);
  EXPECT_TRUE(node.crypto.verify_cert(qc, preimage, CertScheme::kIndividual,
                                      2, membership, 0, "vote"));
  EXPECT_FALSE(node.memo.peek(fp1, a1, preimage, s1).has_value());
  EXPECT_EQ(node.memo.peek(fp2, a2, preimage, s2), std::optional<bool>(true));
  EXPECT_EQ(node.count("verify", "vote"), 1u);

  // A forged signature whose fingerprint is cached: uncharged, yet
  // rejected by the exact check.
  QuorumCert forged = qc;
  forged.sigs[0].second = Bytes(s1.size(), 0);
  node.crypto.certs().remember_sig(
      crypto::fingerprint(a1, preimage, forged.sigs[0].second), 0);
  EXPECT_FALSE(node.crypto.verify_cert(forged, preimage,
                                       CertScheme::kIndividual, 2, membership,
                                       0, "vote"));
  // Only s2, which the signature cache does not hold, is charged again.
  EXPECT_EQ(node.count("verify", "vote"), 2u);
}

TEST(NodeCrypto, AggregateCertIsVerifiedOnceThenCached) {
  Node node;
  MembershipState membership(kN);
  CertSignatures cert;
  const Bytes preimage = text("checkpoint 8");
  for (NodeId i : {0u, 2u, 3u}) {
    cert.sigs.emplace_back(i, node.agg->share(i, preimage));
  }
  node.crypto.fold(cert, membership);
  ASSERT_EQ(cert.scheme, CertScheme::kAggregate);
  EXPECT_EQ(cert.signer_list(), (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(cert.gen, 0u);
  // The fold is charged as a combine and counted as no op.
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kSign),
                   energy::agg_combine_energy_mj(3));
  EXPECT_EQ(node.counted(), 0u);

  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(node.crypto.verify_cert(cert, preimage, CertScheme::kAggregate,
                                        3, membership, 0, "checkpoint"));
  }
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kVerify),
                   energy::agg_verify_energy_mj(3));
  EXPECT_EQ(node.count("verify", "checkpoint"), 1u);
  EXPECT_EQ(node.crypto.certs().hits(), 1u);
  EXPECT_FALSE(node.crypto.verify_cert(cert, text("checkpoint 9"),
                                       CertScheme::kAggregate, 3, membership,
                                       0, "checkpoint"));
}

TEST(NodeCrypto, CombineIsChargedAsASign) {
  Node node(false, "client");
  node.crypto.combine(2);
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kSign),
                   energy::agg_combine_energy_mj(2));
  EXPECT_EQ(node.counted(), 0u);
}

TEST(NodeCrypto, HashesAreChargedAndCountedAtTheirSites) {
  Node node;
  Block b;
  b.parent = genesis_hash();
  b.height = 1;
  b.cmds.push_back(Command{Bytes(100, 0x42)});
  EXPECT_EQ(node.crypto.hash_block(b), b.hash());
  const Bytes payload(200, 0x17);
  EXPECT_EQ(node.crypto.hash(payload, "checkpoint"), crypto::sha256(payload));
  EXPECT_DOUBLE_EQ(node.meter.millijoules(Category::kHash),
                   energy::hash_energy_mj(b.encoded_size()) +
                       energy::hash_energy_mj(payload.size()));
  EXPECT_EQ(node.count("hash", "block"), 1u);
  EXPECT_EQ(node.count("hash", "checkpoint"), 1u);
}

TEST(NodeCrypto, CountsUnderItsComponent) {
  Node node(false, "client");
  (void)node.crypto.sign(text("m"), false, "request");
  EXPECT_EQ(node.count("sign", "request", "client"), 1u);
  EXPECT_EQ(node.count("sign", "request"), 0u);
}

TEST(NodeCrypto, NullMeterOrProfilerChargesAndCountsNothing) {
  const auto ring = crypto::Keyring::simulated(kScheme, kN, 7);
  const auto agg = crypto::AggKeyring::simulated(kN, 9);
  energy::Meter meter;
  prof::Profiler prof;
  // Counted, not charged.
  NodeCrypto counting(0, "replica", kN, ring, agg, nullptr, &prof, nullptr);
  // Charged, not counted.
  NodeCrypto charging(0, "replica", kN, ring, agg, &meter, nullptr, nullptr);
  NodeCrypto bare(0, "replica", kN, ring, agg, nullptr, nullptr, nullptr);
  for (NodeCrypto* c : {&counting, &charging, &bare}) {
    const Bytes sig = c->sign(text("m"), false, "vote");
    EXPECT_TRUE(c->verify(0, text("m"), sig, false, "vote"));
    EXPECT_FALSE(c->verify(1, text("m"), sig, false, "vote"));
    c->combine(3);
    (void)c->hash(text("m"), "checkpoint");
  }
  EXPECT_EQ(meter.ops(Category::kSign), 2u);  // the sign and the combine
  EXPECT_EQ(meter.ops(Category::kVerify), 2u);
  EXPECT_EQ(meter.ops(Category::kHash), 1u);
  std::uint64_t counted = 0;
  for (const auto& [key, n] : prof.snapshot().crypto_ops) counted += n;
  EXPECT_EQ(counted, 4u);  // sign, two verifies, hash
}

}  // namespace
}  // namespace eesmr::smr
