#include "src/smr/block.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "src/common/serde.hpp"
#include "src/crypto/sha256.hpp"
#include "src/smr/chain.hpp"
#include "src/smr/mempool.hpp"

namespace eesmr::smr {
namespace {

Block make_child(const Block& parent, std::uint64_t round,
                 const std::string& cmd) {
  Block b;
  b.parent = parent.hash();
  b.height = parent.height + 1;
  b.view = 1;
  b.round = round;
  b.proposer = 0;
  b.cmds = {Command{to_bytes(cmd)}};
  return b;
}

TEST(Block, GenesisIsStable) {
  EXPECT_EQ(genesis_block().height, 0u);
  EXPECT_TRUE(genesis_block().cmds.empty());
  EXPECT_EQ(genesis_hash(), genesis_block().hash());
  EXPECT_EQ(genesis_hash().size(), 32u);
}

TEST(Block, EncodeDecodeRoundTrip) {
  Block b = make_child(genesis_block(), 3, "cmd-a");
  b.cmds.push_back(Command{Bytes{1, 2, 3}});
  const Block decoded = Block::decode(b.encode());
  EXPECT_EQ(decoded, b);
  EXPECT_EQ(decoded.hash(), b.hash());
}

TEST(Block, HashBindsEveryField) {
  const Block base = make_child(genesis_block(), 3, "x");
  Block b1 = base;
  b1.round = 4;
  Block b2 = base;
  b2.view = 2;
  Block b3 = base;
  b3.cmds[0].data.push_back(0);
  Block b4 = base;
  b4.proposer = 1;
  for (const Block& b : {b1, b2, b3, b4}) {
    EXPECT_NE(b.hash(), base.hash());
  }
}

TEST(Block, DecodedAndCopiedBlocksCarryTheFreshDigest) {
  Block b = make_child(genesis_block(), 3, "cmd-a");
  b.cmds.push_back(Command{Bytes(40, 7)});
  const Bytes fresh = crypto::sha256(b.encode());
  const Block decoded = Block::decode(b.encode());
  EXPECT_EQ(decoded.hash(), fresh);
  const Block copy = decoded;  // carries the memoized digest
  EXPECT_EQ(copy.hash(), fresh);
  Block assigned;
  assigned = copy;
  EXPECT_EQ(assigned.hash(), fresh);
  EXPECT_EQ(b.hash(), fresh);
}

TEST(Block, EqualityIgnoresTheMemoizedDigest) {
  const Block b = make_child(genesis_block(), 3, "x");
  const Block unhashed = b;  // copied before b is hashed
  (void)b.hash();
  EXPECT_EQ(b, unhashed);
  EXPECT_EQ(unhashed, b);
  Block other = unhashed;
  other.round = 4;
  EXPECT_FALSE(other == b);
}

TEST(Block, EncodedSizeMatchesEncoding) {
  Block b = make_child(genesis_block(), 3, "cmd");
  b.cmds.push_back(Command{Bytes{}});
  b.cmds.push_back(Command{Bytes(300, 1)});
  EXPECT_EQ(b.encoded_size(), b.encode().size());
  EXPECT_EQ(genesis_block().encoded_size(), genesis_block().encode().size());
}

#ifndef NDEBUG
// Debug builds recompute the digest on every memo hit: a block modified
// after hashing (its memo now stale) fails the assertion.
TEST(BlockDeathTest, ModifiedAfterHashingAsserts) {
  Block b = make_child(genesis_block(), 3, "x");
  (void)b.hash();
  b.round = 4;
  EXPECT_DEATH((void)b.hash(), "modified after it was hashed");
}
#endif

TEST(Block, PayloadBytes) {
  Block b = make_child(genesis_block(), 3, "12345");
  b.cmds.push_back(Command{Bytes(11, 0)});
  EXPECT_EQ(b.payload_bytes(), 16u);
}

TEST(Block, DecodeRejectsTrailingGarbage) {
  Bytes enc = genesis_block().encode();
  enc.push_back(0xff);
  EXPECT_THROW(Block::decode(enc), SerdeError);
}

// -- BlockStore -----------------------------------------------------------------

TEST(BlockStore, StartsWithGenesis) {
  BlockStore store;
  EXPECT_TRUE(store.contains(genesis_hash()));
  EXPECT_EQ(store.size(), 1u);
}

TEST(BlockStore, AddChainAndQueryAncestry) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  EXPECT_TRUE(store.add(b1));
  EXPECT_TRUE(store.add(b2));
  EXPECT_TRUE(store.extends(b2.hash(), genesis_hash()));
  EXPECT_TRUE(store.extends(b2.hash(), b1.hash()));
  EXPECT_TRUE(store.extends(b1.hash(), b1.hash()));  // reflexive
  EXPECT_FALSE(store.extends(b1.hash(), b2.hash()));
}

TEST(BlockStore, ConflictDetection) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block fork = make_child(genesis_block(), 3, "b");
  store.add(b1);
  store.add(fork);
  EXPECT_TRUE(store.conflicts(b1.hash(), fork.hash()));
  EXPECT_FALSE(store.conflicts(b1.hash(), genesis_hash()));
}

TEST(BlockStore, RejectsMissingParent) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  EXPECT_FALSE(store.add(b2));  // parent unknown
  EXPECT_FALSE(store.contains(b2.hash()));
}

TEST(BlockStore, HeightMismatchIsRefused) {
  BlockStore store;
  Block bad = make_child(genesis_block(), 3, "a");
  bad.height = 5;
  EXPECT_FALSE(store.add(bad));
  EXPECT_FALSE(store.contains(bad.hash()));
}

TEST(BlockStore, ChainBetween) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  const Block b3 = make_child(b2, 5, "c");
  store.add(b1);
  store.add(b2);
  store.add(b3);
  const auto chain = store.chain_between(b3.hash(), b1.hash());
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0], b2);
  EXPECT_EQ(chain[1], b3);
  EXPECT_TRUE(store.chain_between(b1.hash(), b1.hash()).empty());
}

// Ancestry by walking parents and hashing each block afresh: the
// answers BlockStore's key-based walks must reproduce.
bool reference_extends(const BlockStore& store, const BlockHash& desc,
                       const BlockHash& anc) {
  const Block* a = store.get(anc);
  if (a == nullptr) return false;
  for (const Block* cur = store.get(desc); cur != nullptr;
       cur = store.get(cur->parent)) {
    if (crypto::sha256(cur->encode()) == anc) return true;
    if (cur->height <= a->height) return false;
  }
  return false;
}

TEST(BlockStore, KeyWalksMatchHashingReferenceOnForkedChain) {
  BlockStore store;
  std::vector<BlockHash> main{genesis_hash()};
  std::vector<BlockHash> fork;  // branches off main at height 500
  Block tip = genesis_block();
  Block fork_tip;
  for (std::uint64_t h = 1; h <= 1000; ++h) {
    tip = make_child(tip, h, "m" + std::to_string(h));
    ASSERT_TRUE(store.add(Block::decode(tip.encode())));
    main.push_back(tip.hash());
    if (h == 500) fork_tip = tip;
  }
  for (std::uint64_t h = 501; h <= 700; ++h) {
    fork_tip = make_child(fork_tip, h, "f" + std::to_string(h));
    ASSERT_TRUE(store.add(fork_tip));
    fork.push_back(fork_tip.hash());
  }
  ASSERT_EQ(store.size(), 1201u);

  std::vector<BlockHash> probes;
  for (std::size_t i = 0; i < main.size(); i += 37) probes.push_back(main[i]);
  for (std::size_t i = 0; i < fork.size(); i += 23) probes.push_back(fork[i]);
  probes.push_back(main[499]);
  probes.push_back(main[500]);
  probes.push_back(main[501]);
  probes.push_back(main.back());
  probes.push_back(fork.front());
  probes.push_back(fork.back());
  probes.push_back(Bytes(32, 0xee));  // unknown

  std::size_t extending = 0;
  for (const BlockHash& a : probes) {
    for (const BlockHash& b : probes) {
      const bool ext = reference_extends(store, a, b);
      ASSERT_EQ(store.extends(a, b), ext);
      ASSERT_EQ(store.conflicts(a, b),
                !ext && !reference_extends(store, b, a));
      if (!ext) continue;
      ++extending;
      if (!store.contains(a)) continue;
      const std::vector<Block> chain = store.chain_between(a, b);
      const Block* lo = store.get(b);
      ASSERT_EQ(chain.size(), store.get(a)->height - lo->height);
      BlockHash parent = b;
      for (const Block& c : chain) {
        ASSERT_EQ(c.parent, parent);
        parent = crypto::sha256(c.encode());
      }
      if (!chain.empty()) {
        ASSERT_EQ(parent, a);
      }
    }
  }
  EXPECT_GT(extending, probes.size());  // beyond the reflexive pairs
  EXPECT_TRUE(store.conflicts(main.back(), fork.back()));
  EXPECT_TRUE(store.extends(fork.back(), main[500]));
  EXPECT_FALSE(store.extends(fork.back(), main[501]));
}

TEST(BlockStore, ChainBetweenRejectsNonAncestor) {
  BlockStore store;
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block fork = make_child(genesis_block(), 3, "b");
  store.add(b1);
  store.add(fork);
  EXPECT_THROW(store.chain_between(b1.hash(), fork.hash()),
               std::invalid_argument);
}

// -- Block identity as a container key --------------------------------------------

/// Digests that straddle the signed/unsigned boundary of a char (bytes
/// >= 0x80), share prefixes or differ in length, plus real block digests.
std::vector<BlockHash> key_probes() {
  std::vector<BlockHash> keys = {
      genesis_hash(), Bytes(32, 0x00), Bytes(32, 0x7f), Bytes(32, 0x80),
      Bytes(32, 0xff), Bytes(31, 0x80), Bytes{}};
  BlockHash mixed(32, 0x80);
  mixed[31] = 0x01;
  keys.push_back(mixed);
  mixed[0] = 0x7f;
  keys.push_back(mixed);
  Block tip = genesis_block();
  for (std::uint64_t h = 1; h <= 200; ++h) {
    tip = make_child(tip, h, "k" + std::to_string(h));
    keys.push_back(tip.hash());
  }
  return keys;
}

std::string as_string(const BlockHash& h) {
  return std::string(h.begin(), h.end());
}

TEST(BlockHashKey, HasherMatchesStringHash) {
  for (const BlockHash& h : key_probes()) {
    EXPECT_EQ(BlockHashHasher{}(h), std::hash<std::string>{}(as_string(h)));
  }
}

TEST(BlockHashKey, OrderedMapIteratesLikeStringKeys) {
  // BlockHashLess must order exactly like the byte vector's operator<
  // (and so like string keys): ordered-container iteration reaches
  // protocol actions.
  std::map<BlockHash, int> by_vector;
  BlockHashMap<int> by_digest;
  std::map<std::string, int> by_string;
  int i = 0;
  for (const BlockHash& h : key_probes()) {
    by_vector.emplace(h, i);
    by_digest.emplace(h, i);
    by_string.emplace(as_string(h), i);
    ++i;
  }
  ASSERT_EQ(by_digest.size(), by_string.size());
  ASSERT_EQ(by_digest.size(), by_vector.size());
  auto s = by_string.begin();
  auto v = by_vector.begin();
  for (const auto& [h, val] : by_digest) {
    EXPECT_EQ(as_string(h), s->first);
    EXPECT_EQ(val, s->second);
    EXPECT_EQ(h, v->first);
    ++s;
    ++v;
  }
}

TEST(BlockHashKey, UnorderedMapIteratesLikeStringKeys) {
  // Chain sync's orphan adoption and deepest-orphan tie-break follow the
  // iteration order of its hash table; the same insertions and erasures
  // must visit keys in the same order as string-keyed tables did.
  std::unordered_map<BlockHash, int, BlockHashHasher> by_digest;
  std::unordered_map<std::string, int> by_string;
  const std::vector<BlockHash> keys = key_probes();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    by_digest.emplace(keys[i], static_cast<int>(i));
    by_string.emplace(as_string(keys[i]), static_cast<int>(i));
    if (i % 7 == 3) {
      by_digest.erase(keys[i / 2]);
      by_string.erase(as_string(keys[i / 2]));
    }
  }
  ASSERT_EQ(by_digest.size(), by_string.size());
  auto s = by_string.begin();
  for (const auto& [h, v] : by_digest) {
    EXPECT_EQ(as_string(h), s->first);
    EXPECT_EQ(v, s->second);
    ++s;
  }
}

// -- Mempool ----------------------------------------------------------------------

TEST(Mempool, ExplicitSubmission) {
  Mempool pool(0);
  pool.submit(Command{to_bytes(std::string("one"))});
  pool.submit(Command{to_bytes(std::string("two"))});
  EXPECT_EQ(pool.pending(), 2u);
  const auto batch = pool.next_batch(5);
  EXPECT_EQ(batch.size(), 2u);  // no synthetic filler when disabled
  EXPECT_EQ(to_string(batch[0].data), "one");
}

TEST(Mempool, SyntheticWorkload) {
  Mempool pool(16);
  const auto batch = pool.next_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  for (const Command& c : batch) EXPECT_EQ(c.data.size(), 16u);
  EXPECT_NE(batch[0].data, batch[1].data);  // distinct counters
  EXPECT_EQ(pool.synthesized(), 3u);
}

TEST(Mempool, CommittedCommandsRemoved) {
  Mempool pool(0);
  pool.submit(Command{to_bytes(std::string("keep"))});
  pool.submit(Command{to_bytes(std::string("drop"))});
  Block b;
  b.cmds = {Command{to_bytes(std::string("drop"))}};
  pool.remove_committed(b);
  EXPECT_EQ(pool.pending(), 1u);
  EXPECT_EQ(to_string(pool.next_batch(1)[0].data), "keep");
}

TEST(Mempool, ExplicitCommandsPrecedeSynthetic) {
  Mempool pool(8);
  pool.submit(Command{to_bytes(std::string("real"))});
  const auto batch = pool.next_batch(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(to_string(batch[0].data), "real");
  EXPECT_EQ(batch[1].data.size(), 8u);
}

}  // namespace
}  // namespace eesmr::smr
