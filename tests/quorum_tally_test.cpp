// The one quorum tally (src/smr/quorum_tally.hpp): one vote per signer
// per key, signers in [0, n), counts read by key, certificates built from
// one key's votes in ascending signer order, and pruning by key.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/smr/quorum_tally.hpp"

namespace eesmr::smr {
namespace {

BlockHash digest(std::uint8_t tag) { return BlockHash(32, tag); }

Msg vote(NodeId author, std::uint64_t view, const BlockHash& h) {
  Msg m;
  m.type = MsgType::kVote;
  m.view = view;
  m.author = author;
  m.data = h;
  m.sig = Bytes(8, static_cast<std::uint8_t>(author));
  return m;
}

std::vector<NodeId> signers(const std::vector<Msg>& msgs) {
  std::vector<NodeId> out;
  for (const Msg& m : msgs) out.push_back(m.author);
  return out;
}

TEST(QuorumTally, DuplicateSignerRefusedUnderOneKeyAcceptedUnderAnother) {
  QuorumTally<VoteKey> tally(4);
  const VoteKey a{1, digest(0xa)};
  const VoteKey b{1, digest(0xb)};
  EXPECT_EQ(tally.add(a, vote(2, 1, a.digest)), 1u);
  EXPECT_EQ(tally.add(a, vote(2, 1, a.digest)), 0u);
  EXPECT_EQ(tally.count(a), 1u);
  EXPECT_EQ(tally.add(b, vote(2, 1, b.digest)), 1u);
  EXPECT_EQ(tally.count(b), 1u);
  EXPECT_TRUE(tally.has(a, 2));
  EXPECT_FALSE(tally.has(a, 1));
}

TEST(QuorumTally, SignerOutsideTheReplicaSetIsRefused) {
  QuorumTally<std::uint64_t> tally(4);
  Msg m = vote(4, 1, digest(1));
  EXPECT_EQ(tally.add(1, m), 0u);
  m.author = kNoNode;
  EXPECT_EQ(tally.add(1, m), 0u);
  EXPECT_EQ(tally.count(1), 0u);
  EXPECT_FALSE(tally.has(1, 4));
  EXPECT_EQ(tally.add(1, vote(3, 1, digest(1))), 1u);
}

TEST(QuorumTally, CountReachesQuorumExactlyOnce) {
  // Duplicates and refused signers return 0 and do not move the count,
  // so a caller that acts on `add(...) == q` acts once.
  QuorumTally<VoteKey> tally(7);
  const VoteKey key{3, digest(7)};
  const std::size_t q = 4;
  int reached = 0;
  std::vector<std::size_t> returned;
  for (NodeId s : {5u, 0u, 5u, 9u, 2u, 0u, 6u, 1u, 3u, 6u}) {
    const std::size_t votes = tally.add(key, vote(s, 3, key.digest));
    returned.push_back(votes);
    if (votes == q) ++reached;
  }
  EXPECT_EQ(reached, 1);
  EXPECT_EQ(returned,
            (std::vector<std::size_t>{1, 2, 0, 0, 3, 0, 4, 5, 6, 0}));
  EXPECT_EQ(tally.count(key), 6u);  // 5, 0, 2, 6, 1, 3
}

TEST(QuorumTally, QuorumMsgsListSignersInAscendingOrder) {
  const VoteKey key{1, digest(1)};
  for (const std::vector<NodeId>& arrival :
       {std::vector<NodeId>{3, 1, 2, 0}, std::vector<NodeId>{0, 1, 2, 3},
        std::vector<NodeId>{2, 3, 0, 1}}) {
    QuorumTally<VoteKey> tally(4);
    for (NodeId s : arrival) tally.add(key, vote(s, 1, key.digest));
    EXPECT_EQ(signers(tally.quorum_msgs(key, 3)),
              (std::vector<NodeId>{0, 1, 2}));
    // Asking for more than the key holds lists all of it.
    EXPECT_EQ(signers(tally.quorum_msgs(key, 9)),
              (std::vector<NodeId>{0, 1, 2, 3}));
    EXPECT_EQ(signers(tally.votes(key)), (std::vector<NodeId>{0, 1, 2, 3}));
    const QuorumCert qc = QuorumCert::combine(tally.quorum_msgs(key, 3));
    ASSERT_EQ(qc.sigs.size(), 3u);
    EXPECT_EQ(qc.sigs.front().first, 0u);
    EXPECT_EQ(qc.sigs.back().first, 2u);
  }
}

TEST(QuorumTally, LaterViewVoteNeverJoinsAnEarlierViewsCertificate) {
  // Two view-1 votes for a block, then a view-2 vote for the same block:
  // per block hash that would be a "quorum" of three that
  // QuorumCert::combine rejects as mismatched.
  QuorumTally<VoteKey> tally(4);
  const BlockHash h = digest(0x42);
  const VoteKey v1{1, h};
  const VoteKey v2{2, h};
  tally.add(v1, vote(0, 1, h));
  tally.add(v1, vote(1, 1, h));
  EXPECT_EQ(tally.add(v2, vote(2, 2, h)), 1u);
  EXPECT_EQ(tally.count(v1), 2u);
  EXPECT_EQ(tally.count(v2), 1u);
  tally.add(v1, vote(3, 1, h));
  ASSERT_EQ(tally.count(v1), 3u);
  QuorumCert qc;
  EXPECT_NO_THROW(qc = QuorumCert::combine(tally.quorum_msgs(v1, 3)));
  EXPECT_EQ(qc.view, 1u);
  EXPECT_EQ(qc.signer_list(), (std::vector<NodeId>{0, 1, 3}));
}

TEST(QuorumTally, EraseIfKeepsTheKeysThePredicateSpares) {
  QuorumTally<std::uint64_t> tally(4);
  for (std::uint64_t view = 1; view <= 4; ++view) {
    tally.add(view, vote(0, view, digest(0)));
  }
  tally.erase_if([](std::uint64_t view) { return view <= 2; });
  EXPECT_EQ(tally.count(1), 0u);
  EXPECT_EQ(tally.count(2), 0u);
  EXPECT_EQ(tally.count(3), 1u);
  EXPECT_EQ(tally.count(4), 1u);
  // A pruned key starts over.
  EXPECT_EQ(tally.add(1, vote(0, 1, digest(0))), 1u);
  tally.clear();
  EXPECT_EQ(tally.count(3), 0u);
}

TEST(QuorumTally, DigestKeyCountsAcrossViews) {
  // MinBFT's attested commits: one seat per signer per digest, whatever
  // the view, and a vote that carries only its author counts.
  QuorumTally<BlockHash, BlockHashLess> tally(3);
  EXPECT_EQ(tally.add(digest(1), vote(2, 1, digest(1))), 1u);
  EXPECT_EQ(tally.add(digest(1), vote(2, 2, digest(1))), 0u);
  Msg bare;
  bare.author = 3;
  EXPECT_EQ(tally.add(digest(1), bare), 0u);
  bare.author = 0;
  EXPECT_EQ(tally.add(digest(1), bare), 2u);
  EXPECT_EQ(tally.count(digest(1)), 2u);
  EXPECT_EQ(tally.count(digest(2)), 0u);
}

TEST(QuorumTally, OwnVoteMatchesASentSetOfTheSameLifetime) {
  // The tally replaced per-protocol "I voted for h" sets that were added
  // to with the own vote and pruned with the tally. Replay that life on
  // both and compare has(key, self) with the set after every step.
  const NodeId self = 1;
  QuorumTally<VoteKey> tally(4);
  std::set<VoteKey> sent;
  const auto check = [&](const std::vector<VoteKey>& keys) {
    for (const VoteKey& k : keys) {
      EXPECT_EQ(tally.has(k, self), sent.count(k) > 0);
    }
  };
  std::vector<VoteKey> keys;
  for (std::uint8_t i = 1; i <= 6; ++i) keys.push_back({1, digest(i)});
  for (const VoteKey& k : keys) {
    tally.add(k, vote(0, 1, k.digest));  // a peer's vote first
    if (k.digest[0] % 2 == 0) {
      tally.add(k, vote(self, 1, k.digest));
      sent.insert(k);
    }
    check(keys);
  }
  const auto settled = [](const VoteKey& k) { return k.digest[0] <= 3; };
  tally.erase_if(settled);
  std::erase_if(sent, settled);
  check(keys);
  tally.clear();
  sent.clear();
  check(keys);
}

}  // namespace
}  // namespace eesmr::smr
