#include "src/smr/message.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "src/smr/block.hpp"
#include "src/smr/request.hpp"
#include "tests/cert_probe.hpp"

// Counting replacement of the global allocator for this test binary: the
// encoder tests below assert how many heap allocations an encode makes.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined next to a `new`, GCC flags the free() as a
// mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace eesmr::smr {
namespace {

std::shared_ptr<crypto::Keyring> ring() {
  static auto r =
      crypto::Keyring::simulated(crypto::SchemeId::kRsa1024, 5, 77);
  return r;
}

/// Replica 0 of n = 4, f = 1, keyed by ring().
ReplicaConfig probe4() { return probe_config(4, 1, ring()); }

Msg signed_msg(NodeId author, MsgType type, std::uint64_t view, Bytes data) {
  Msg m;
  m.type = type;
  m.view = view;
  m.round = 0;
  m.author = author;
  m.data = std::move(data);
  m.sig = ring()->signer(author).sign(m.preimage());
  return m;
}

TEST(Msg, EncodeDecodeRoundTrip) {
  const Msg m = signed_msg(2, MsgType::kPropose, 7, Bytes{9, 9, 9});
  const Msg d = Msg::decode(m.encode());
  EXPECT_EQ(d.type, m.type);
  EXPECT_EQ(d.view, m.view);
  EXPECT_EQ(d.author, m.author);
  EXPECT_EQ(d.data, m.data);
  EXPECT_EQ(d.sig, m.sig);
}

TEST(Msg, PreimageExcludesSignatureAndAuthor) {
  Msg m = signed_msg(1, MsgType::kBlame, 3, {});
  const Bytes p1 = m.preimage();
  m.sig = Bytes{1, 2, 3};
  m.author = 4;
  EXPECT_EQ(m.preimage(), p1);
}

TEST(Msg, PreimageBindsTypeViewRoundData) {
  Msg m = signed_msg(1, MsgType::kBlame, 3, Bytes{1});
  Msg m2 = m;
  m2.type = MsgType::kCertify;
  Msg m3 = m;
  m3.view = 4;
  Msg m4 = m;
  m4.round = 9;
  Msg m5 = m;
  m5.data = Bytes{2};
  for (const Msg& other : {m2, m3, m4, m5}) {
    EXPECT_NE(other.preimage(), m.preimage());
  }
}

TEST(Msg, MatchingMsgPredicate) {
  const Msg m = signed_msg(0, MsgType::kBlame, 5, {});
  EXPECT_TRUE(matching_msg(m, MsgType::kBlame, 5));
  EXPECT_FALSE(matching_msg(m, MsgType::kBlame, 6));
  EXPECT_FALSE(matching_msg(m, MsgType::kCertify, 5));
}

TEST(QuorumCert, CombineAndVerify) {
  std::vector<Msg> blames;
  for (NodeId i = 0; i < 3; ++i) {
    blames.push_back(signed_msg(i, MsgType::kBlame, 2, {}));
  }
  const QuorumCert qc = QuorumCert::combine(blames);
  EXPECT_EQ(qc.sigs.size(), 3u);
  ProbeNode node(probe4());
  EXPECT_TRUE(node.replica.verify_qc(qc, 3));
  EXPECT_TRUE(node.replica.verify_qc(qc, 2));
  EXPECT_FALSE(node.replica.verify_qc(qc, 4));  // not enough signatures
  EXPECT_TRUE(matching_qc(qc, MsgType::kBlame, 2));
}

TEST(QuorumCert, EncodeDecodeRoundTrip) {
  std::vector<Msg> msgs;
  for (NodeId i = 0; i < 2; ++i) {
    msgs.push_back(signed_msg(i, MsgType::kCertify, 4, Bytes{7, 7}));
  }
  const QuorumCert qc = QuorumCert::combine(msgs);
  const QuorumCert d = QuorumCert::decode(qc.encode());
  EXPECT_EQ(d.type, qc.type);
  EXPECT_EQ(d.view, qc.view);
  EXPECT_EQ(d.data, qc.data);
  ASSERT_EQ(d.sigs.size(), qc.sigs.size());
  ProbeNode node(probe4());
  EXPECT_TRUE(node.replica.verify_qc(d, 2));
}

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t c : b) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

// The wire bytes of both forms, pinned to literals: a round trip alone
// would not notice a format change made on the encode and decode sides
// together.
TEST(QuorumCert, WireBytesArePinnedInBothForms) {
  QuorumCert qc;
  qc.type = MsgType::kCommitQC;
  qc.view = 7;
  qc.round = 3;
  qc.data = Bytes{0x01, 0x02, 0x03};
  qc.sigs = {{0, Bytes{0xAA, 0xBB}}, {2, Bytes{0xCC}}};
  EXPECT_EQ(hex(qc.encode()),
            "0607000000000000000300000000000000030000000102030200000000000000"
            "02000000aabb0200000001000000cc");
  const QuorumCert back = QuorumCert::decode(qc.encode());
  EXPECT_EQ(back.scheme, CertScheme::kIndividual);
  EXPECT_EQ(back.sigs, qc.sigs);
  EXPECT_EQ(back.encode(), qc.encode());

  QuorumCert agg = qc;
  agg.sigs.clear();
  agg.scheme = CertScheme::kAggregate;
  agg.gen = 5;
  agg.signers = crypto::SignerBitset(7);
  for (const NodeId id : {0u, 1u, 4u}) agg.signers.set(id);
  agg.agg_sig = Bytes(crypto::kAggSignatureBytes);
  for (std::size_t i = 0; i < agg.agg_sig.size(); ++i) {
    agg.agg_sig[i] = static_cast<std::uint8_t>(3 * i);
  }
  EXPECT_EQ(hex(agg.encode()),
            "060700000000000000030000000000000003000000010203ffffffff05000000"
            "00000000070000001330000000000306090c0f1215181b1e2124272a2d303336"
            "393c3f4245484b4e5154575a5d606366696c6f7275787b7e8184878a8d");
  const QuorumCert agg_back = QuorumCert::decode(agg.encode());
  EXPECT_EQ(agg_back.scheme, CertScheme::kAggregate);
  EXPECT_EQ(agg_back.gen, 5u);
  EXPECT_EQ(agg_back.signers, agg.signers);
  EXPECT_EQ(agg_back.agg_sig, agg.agg_sig);
  EXPECT_TRUE(agg_back.sigs.empty());
  EXPECT_EQ(agg_back.encode(), agg.encode());
}

TEST(QuorumCert, CombineRejectsMismatchedMessages) {
  std::vector<Msg> msgs = {signed_msg(0, MsgType::kBlame, 2, {}),
                           signed_msg(1, MsgType::kBlame, 3, {})};
  EXPECT_THROW(QuorumCert::combine(msgs), std::invalid_argument);
  EXPECT_THROW(QuorumCert::combine({}), std::invalid_argument);
}

TEST(QuorumCert, CombineDeduplicatesAuthors) {
  std::vector<Msg> msgs = {signed_msg(0, MsgType::kBlame, 2, {}),
                           signed_msg(0, MsgType::kBlame, 2, {}),
                           signed_msg(1, MsgType::kBlame, 2, {})};
  const QuorumCert qc = QuorumCert::combine(msgs);
  EXPECT_EQ(qc.sigs.size(), 2u);
}

TEST(QuorumCert, VerifyRejectsDuplicateAuthors) {
  const Msg m = signed_msg(0, MsgType::kBlame, 2, {});
  QuorumCert qc;
  qc.type = MsgType::kBlame;
  qc.view = 2;
  qc.round = 0;
  qc.sigs = {{0, m.sig}, {0, m.sig}};
  ProbeNode node(probe4());
  EXPECT_FALSE(node.replica.verify_qc(qc, 2));
}

TEST(QuorumCert, VerifyRejectsForgedSignature) {
  std::vector<Msg> msgs = {signed_msg(0, MsgType::kBlame, 2, {}),
                           signed_msg(1, MsgType::kBlame, 2, {})};
  QuorumCert qc = QuorumCert::combine(msgs);
  qc.sigs[1].second[0] ^= 0x01;
  ProbeNode node(probe4());
  EXPECT_FALSE(node.replica.verify_qc(qc, 2));
}

TEST(QuorumCert, VerifyRejectsWrongAttribution) {
  // A signature by node 0 presented as node 2's.
  std::vector<Msg> msgs = {signed_msg(0, MsgType::kBlame, 2, {}),
                           signed_msg(1, MsgType::kBlame, 2, {})};
  QuorumCert qc = QuorumCert::combine(msgs);
  qc.sigs[0].first = 2;
  ProbeNode node(probe4());
  EXPECT_FALSE(node.replica.verify_qc(qc, 2));
}

TEST(ReplicaVerifyQc, RejectsClientKeyedSignature) {
  // n = 4 replicas; the keyring's fifth key (id 4) belongs to a client,
  // as in a cluster whose key directory also covers its clients.
  ProbeNode node(probe4());
  const Bytes block(32, 0xab);
  const Msg vote1 = signed_msg(1, MsgType::kVote, 2, block);
  const Msg vote2 = signed_msg(2, MsgType::kVote, 2, block);
  const Msg client = signed_msg(4, MsgType::kVote, 2, block);
  EXPECT_TRUE(node.replica.verify_qc(QuorumCert::combine({vote1, vote2}), 2));
  // Both signatures are valid over the same preimage, but a client is
  // not a replica and its signature must not count toward a quorum.
  EXPECT_FALSE(
      node.replica.verify_qc(QuorumCert::combine({vote1, client}), 2));
}

TEST(ReplicaVerifyQc, ReplayedVoteSignatureOverAnotherPreimageIsRejected) {
  // The verified-signature cache is indexed by a 64-bit fingerprint, so
  // a hit only skips the metered re-verify; the certificate still checks
  // each exact (author, preimage, signature). With and without the
  // cluster's verdict memo, whose stored verdict confirms a hit.
  for (const bool with_memo : {false, true}) {
    crypto::VerifyMemo memo;
    ReplicaConfig cfg = probe4();
    if (with_memo) cfg.memo = &memo;
    ProbeNode node(cfg);
    const Bytes block_a(32, 0xab);
    const Msg vote1 = signed_msg(1, MsgType::kVote, 2, block_a);
    const Msg vote2 = signed_msg(2, MsgType::kVote, 2, block_a);
    ASSERT_TRUE(node.replica.verify_msg(vote1));
    ASSERT_TRUE(node.replica.verify_msg(vote2));
    const std::uint64_t hits = node.replica.sig_cache_hits();
    // The same two signatures re-carried over another block digest.
    QuorumCert replay = QuorumCert::combine({vote1, vote2});
    replay.data = Bytes(32, 0xcd);
    EXPECT_FALSE(node.replica.verify_qc(replay, 2)) << with_memo;
    EXPECT_EQ(node.replica.sig_cache_hits(), hits) << with_memo;
    // The matching certificate: one cache hit per signature.
    EXPECT_TRUE(node.replica.verify_qc(QuorumCert::combine({vote1, vote2}), 2))
        << with_memo;
    EXPECT_EQ(node.replica.sig_cache_hits(), hits + 2) << with_memo;
  }
}

/// Heap allocations one call of `encode` makes. The bytes it returns
/// must fill their buffer exactly: the encoder reserved its exact size.
template <class Encode>
std::size_t allocations_of(const Encode& encode) {
  const std::size_t before = g_allocations;
  const Bytes out = encode();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(out.capacity(), out.size());
  return allocations;
}

TEST(EncodeAllocations, EveryEncoderAllocatesOnce) {
  const Msg m = signed_msg(2, MsgType::kVote, 7, Bytes(100, 0xAB));
  EXPECT_EQ(allocations_of([&] { return m.encode(); }), 1u);
  EXPECT_EQ(allocations_of([&] { return m.preimage(); }), 1u);

  QuorumCert qc = QuorumCert::combine(
      {signed_msg(0, MsgType::kVote, 3, Bytes{1, 2}),
       signed_msg(1, MsgType::kVote, 3, Bytes{1, 2}),
       signed_msg(3, MsgType::kVote, 3, Bytes{1, 2})});
  EXPECT_EQ(allocations_of([&] { return qc.encode(); }), 1u);
  EXPECT_EQ(allocations_of([&] { return qc.preimage(); }), 1u);
  qc.sigs.clear();
  qc.scheme = CertScheme::kAggregate;
  qc.signers = crypto::SignerBitset(19);
  for (const NodeId id : {0u, 4u, 18u}) qc.signers.set(id);
  qc.agg_sig = Bytes(crypto::kAggSignatureBytes, 0x33);
  EXPECT_EQ(allocations_of([&] { return qc.encode(); }), 1u);

  Block b;
  b.parent = genesis_hash();
  b.height = 1;
  b.cmds = {Command{Bytes(16, 1)}, Command{Bytes(300, 2)}, Command{}};
  EXPECT_EQ(allocations_of([&] { return b.encode(); }), 1u);

  ClientRequest req;
  req.client = 5;
  req.req_id = 9;
  req.op = Bytes(40, 'k');
  req.sig = Bytes(128, 0x5A);
  EXPECT_EQ(allocations_of([&] { return req.preimage(); }), 1u);
  EXPECT_EQ(allocations_of([&] { return req.encode(); }), 1u);

  ClientReply rep;
  rep.client = 5;
  rep.req_id = 9;
  rep.result = Bytes(24, 'v');
  rep.leader = 1;
  EXPECT_EQ(allocations_of([&] { return rep.encode(); }), 1u);

  AcceptanceCert cert;
  cert.client = 5;
  cert.req_id = 9;
  cert.result = Bytes(24, 'v');
  cert.gen = 1;
  cert.signers = crypto::SignerBitset(19);
  for (const NodeId id : {0u, 4u, 18u}) cert.signers.set(id);
  cert.agg_sig = Bytes(crypto::kAggSignatureBytes, 0x33);
  EXPECT_EQ(allocations_of([&] { return cert.encode(); }), 1u);
}

TEST(AcceptanceCert, EncodedSizeMatchesEncode) {
  for (const std::size_t result_size : {0u, 1u, 24u, 1000u}) {
    for (const std::size_t universe : {1u, 4u, 8u, 9u, 19u, 64u}) {
      AcceptanceCert cert;
      cert.client = 7;
      cert.req_id = 3;
      cert.result = Bytes(result_size, 'r');
      cert.signers = crypto::SignerBitset(universe);
      for (NodeId id = 0; id < universe; id += 2) cert.signers.set(id);
      cert.agg_sig = Bytes(crypto::kAggSignatureBytes, 0x44);
      EXPECT_EQ(cert.encoded_size(), cert.encode().size())
          << "result " << result_size << ", universe " << universe;
    }
  }
}

TEST(EncodeAllocations, PreimageIntoAUsedWriterAllocatesNothing) {
  const Msg m = signed_msg(2, MsgType::kVote, 7, Bytes(100, 0xAB));
  Writer w;
  m.preimage_into(w);
  EXPECT_EQ(w.buffer(), m.preimage());
  w.clear();
  const std::size_t before = g_allocations;
  m.preimage_into(w);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(w.buffer(), m.preimage());
}

TEST(MsgTypeNames, AllNamed) {
  EXPECT_STREQ(msg_type_name(MsgType::kPropose), "Propose");
  EXPECT_STREQ(msg_type_name(MsgType::kBlame), "Blame");
  EXPECT_STREQ(msg_type_name(MsgType::kEquivProof), "EquivProof");
  EXPECT_STREQ(msg_type_name(MsgType::kOrdered), "Ordered");
}

}  // namespace
}  // namespace eesmr::smr
