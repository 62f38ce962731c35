// smr::ChainSync over a bare BlockStore, without a replica: block offers,
// the ask-once rule and its episode clock, orphan adoption, serving and
// accepting sync responses, the backward walk, truncation, and the
// parking buffers with their one cap.
#include "src/smr/chain_sync.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

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

/// A block at `height` whose parent is `parent`, a hash nothing stores.
Block made_up(std::uint8_t parent, std::uint64_t height) {
  Block b;
  b.parent = BlockHash(32, parent);
  b.height = height;
  b.view = 1;
  b.proposer = 1;
  return b;
}

/// genesis, then `n` blocks on top of it; chain[i] is at height i.
std::vector<Block> chain_of(std::size_t n) {
  std::vector<Block> chain{genesis_block()};
  while (chain.size() <= n) {
    chain.push_back(make_child(chain.back(), chain.size(), "c"));
  }
  return chain;
}

/// The blocks of a kSyncResponse payload, in wire order.
std::vector<Block> decode_response(const Bytes& payload) {
  Reader r(payload);
  std::vector<Block> out(r.u32());
  for (Block& b : out) b = Block::decode(r.bytes());
  r.expect_done();
  return out;
}

Msg parked_msg(std::uint64_t round) {
  Msg m;
  m.type = MsgType::kPropose;
  m.view = 2;
  m.round = round;
  m.author = 1;
  return m;
}

TEST(ChainSync, OfferStoresRefusesMalformedAndPoolsOrphans) {
  BlockStore store;
  ChainSync sync(store);
  const Block b1 = make_child(genesis_block(), 1, "a");
  EXPECT_EQ(sync.offer(b1), ChainSync::Offer::kStored);
  EXPECT_TRUE(store.contains(b1.hash()));

  Block bad = make_child(b1, 2, "b");
  bad.height = 5;
  EXPECT_EQ(sync.offer(bad), ChainSync::Offer::kMalformed);
  EXPECT_FALSE(store.contains(bad.hash()));
  EXPECT_EQ(sync.orphan_count(), 0u);

  const Block b2 = make_child(b1, 2, "b");
  const Block b3 = make_child(b2, 3, "c");
  EXPECT_EQ(sync.offer(b3), ChainSync::Offer::kOrphan);
  EXPECT_FALSE(store.contains(b3.hash()));
  EXPECT_EQ(sync.orphan_count(), 1u);
}

TEST(ChainSync, AsksOncePerParentAndClocksTheEpisode) {
  BlockStore store;
  ChainSync sync(store);
  EXPECT_EQ(sync.end_episode(7), 7);  // no episode open
  EXPECT_TRUE(sync.ask(BlockHash(32, 1), 100));
  EXPECT_FALSE(sync.ask(BlockHash(32, 1), 200));
  EXPECT_TRUE(sync.ask(BlockHash(32, 2), 300));
  // State transfer ends the episode that began at the first ask; asks
  // and the clock start over.
  EXPECT_EQ(sync.end_episode(400), 100);
  EXPECT_EQ(sync.end_episode(500), 500);
  EXPECT_TRUE(sync.ask(BlockHash(32, 1), 600));
  EXPECT_EQ(sync.end_episode(700), 600);
}

TEST(ChainSync, OrphanWithHeightMismatchIsDroppedOnAdoption) {
  BlockStore store;
  ChainSync sync(store);
  const Block b1 = make_child(genesis_block(), 3, "a");
  Block bad = make_child(b1, 4, "b");
  bad.height = 7;
  EXPECT_EQ(sync.offer(bad), ChainSync::Offer::kOrphan);
  store.add(b1);
  EXPECT_TRUE(sync.adopt().empty());
  EXPECT_FALSE(store.contains(bad.hash()));
  EXPECT_EQ(sync.orphan_count(), 0u);
}

TEST(ChainSync, OrphanAdoption) {
  BlockStore store;
  ChainSync sync(store);
  const Block b1 = make_child(genesis_block(), 3, "a");
  const Block b2 = make_child(b1, 4, "b");
  const Block b3 = make_child(b2, 5, "c");
  sync.offer(b3);
  sync.offer(b2);
  EXPECT_EQ(sync.orphan_count(), 2u);
  EXPECT_TRUE(sync.adopt().empty());  // b1 still missing
  store.add(b1);
  const auto adopted = sync.adopt();
  EXPECT_EQ(adopted.size(), 2u);
  EXPECT_TRUE(store.contains(b3.hash()));
  EXPECT_EQ(sync.orphan_count(), 0u);
}

TEST(ChainSync, ServesDeepestFirstCappedAtMaxSyncBlocks) {
  const std::vector<Block> chain = chain_of(100);
  BlockStore store;
  ChainSync sync(store);
  for (std::size_t i = 1; i < chain.size(); ++i) store.add(chain[i]);

  Writer w;
  EXPECT_EQ(sync.serve(chain[100].hash(), w), ChainSync::kMaxSyncBlocks);
  const std::vector<Block> served = decode_response(w.buffer());
  ASSERT_EQ(served.size(), ChainSync::kMaxSyncBlocks);
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i], chain[100 - ChainSync::kMaxSyncBlocks + 1 + i]);
  }
}

TEST(ChainSync, ServingStopsAtGenesis) {
  const std::vector<Block> chain = chain_of(5);
  BlockStore store;
  ChainSync sync(store);
  for (std::size_t i = 1; i < chain.size(); ++i) store.add(chain[i]);

  Writer w;
  EXPECT_EQ(sync.serve(chain[5].hash(), w), 6u);
  EXPECT_EQ(decode_response(w.buffer()), chain);  // genesis first
}

TEST(ChainSync, ServingAnUnknownHashWritesNothing) {
  BlockStore store;
  ChainSync sync(store);
  Writer w;
  EXPECT_EQ(sync.serve(BlockHash(32, 0xee), w), 0u);
  EXPECT_TRUE(w.buffer().empty());
}

TEST(ChainSync, AcceptOffersEveryServedBlock) {
  const std::vector<Block> chain = chain_of(10);
  BlockStore from;
  ChainSync server(from);
  for (std::size_t i = 1; i < chain.size(); ++i) from.add(chain[i]);
  Writer w;
  ASSERT_EQ(server.serve(chain[10].hash(), w), 11u);

  BlockStore to;
  ChainSync client(to);
  EXPECT_TRUE(client.accept(w.buffer()));
  for (const Block& b : chain) EXPECT_TRUE(to.contains(b.hash()));
  EXPECT_EQ(client.orphan_count(), 0u);

  // A payload cut short is refused after the blocks before the cut.
  BlockStore partial;
  ChainSync cut(partial);
  Bytes payload = w.buffer();
  payload.resize(payload.size() - 1);
  EXPECT_FALSE(cut.accept(payload));
  EXPECT_TRUE(partial.contains(chain[9].hash()));
  EXPECT_FALSE(partial.contains(chain[10].hash()));
}

TEST(ChainSync, WalkBackAsksForTheDeepestOrphansParentOnce) {
  const std::vector<Block> chain = chain_of(6);
  BlockStore store;
  ChainSync sync(store);
  sync.offer(chain[6]);
  sync.offer(chain[4]);
  ASSERT_NE(sync.deepest_orphan(), nullptr);
  EXPECT_EQ(*sync.deepest_orphan(), chain[4]);

  const BlockHash* ask = sync.walk_back(50);
  ASSERT_NE(ask, nullptr);
  EXPECT_EQ(*ask, chain[3].hash());
  EXPECT_EQ(sync.walk_back(60), nullptr);  // already asked
  EXPECT_EQ(sync.end_episode(65), 50);     // the walk started the clock

  // A parent stored without adopting the orphan (a retried proposal's
  // block) is not asked for again.
  store.add(chain[1]);
  store.add(chain[2]);
  store.add(chain[3]);
  EXPECT_EQ(sync.walk_back(70), nullptr);

  // The chains meet: adoption empties the pool up to chain[4]; chain[6]
  // waits on chain[5], so the walk asks for it.
  EXPECT_EQ(sync.adopt(), std::vector<Block>{chain[4]});
  ask = sync.walk_back(80);
  ASSERT_NE(ask, nullptr);
  EXPECT_EQ(*ask, chain[5].hash());

  // An empty pool ends the episode: the clock started at 80 and the
  // asks go.
  store.add(chain[5]);
  EXPECT_EQ(sync.adopt(), std::vector<Block>{chain[6]});
  EXPECT_EQ(sync.walk_back(100), nullptr);
  EXPECT_TRUE(sync.ask(chain[5].hash(), 105));
  EXPECT_EQ(sync.end_episode(110), 105);
}

TEST(ChainSync, TruncationCutsTheStoreAndThePoolAtOneFloor) {
  const std::vector<Block> chain = chain_of(5);
  BlockStore store;
  ChainSync sync(store);
  for (std::size_t i = 1; i < chain.size(); ++i) store.add(chain[i]);
  sync.offer(made_up(1, 2));
  sync.offer(made_up(2, 3));
  sync.offer(made_up(3, 4));
  sync.offer(made_up(4, 9));
  ASSERT_TRUE(sync.ask(BlockHash(32, 4), 10));

  sync.truncate_below(chain[3].hash());
  EXPECT_FALSE(store.contains(chain[2].hash()));
  EXPECT_TRUE(store.contains(chain[3].hash()));
  EXPECT_TRUE(store.contains(chain[5].hash()));
  EXPECT_EQ(sync.orphan_count(), 2u);  // heights 4 and 9 stay
  EXPECT_EQ(sync.deepest_orphan()->height, 4u);
  EXPECT_TRUE(sync.ask(BlockHash(32, 4), 20));  // pending asks cleared
  EXPECT_THROW(sync.truncate_below(BlockHash(32, 0xee)),
               std::invalid_argument);
}

TEST(ChainSync, AFullPoolKeepsItsLowestOrphans) {
  const std::size_t cap = ChainSync::kMaxParked;
  const std::vector<Block> chain = chain_of(cap + 2);
  // A pool filled with heights 3 to cap + 2, top down.
  const auto fill = [&](ChainSync& sync) {
    for (std::size_t h = cap + 2; h >= 3; --h) sync.offer(chain[h]);
    ASSERT_EQ(sync.orphan_count(), cap);
  };

  {  // Not lower than the highest orphan: refused. Already pooled: kept,
     // and nothing is evicted for it.
    BlockStore store;
    ChainSync sync(store);
    fill(sync);
    EXPECT_EQ(sync.offer(made_up(0xcd, cap + 2)), ChainSync::Offer::kOrphan);
    EXPECT_EQ(sync.offer(made_up(0xcd, cap + 3)), ChainSync::Offer::kOrphan);
    EXPECT_EQ(sync.offer(chain[5]), ChainSync::Offer::kOrphan);
    EXPECT_EQ(sync.orphan_count(), cap);
    store.add(chain[1]);
    store.add(chain[2]);
    EXPECT_EQ(sync.adopt().size(), cap);  // all of 3 to cap + 2
    EXPECT_EQ(sync.orphan_count(), 0u);   // no made-up block was pooled
  }
  {  // Lower: the highest orphan makes room.
    BlockStore store;
    ChainSync sync(store);
    fill(sync);
    EXPECT_EQ(sync.offer(chain[2]), ChainSync::Offer::kOrphan);
    EXPECT_EQ(sync.orphan_count(), cap);
    store.add(chain[1]);
    EXPECT_EQ(sync.adopt().size(), cap);  // 2 to cap + 1
    EXPECT_FALSE(store.contains(chain[cap + 2].hash()));
    EXPECT_EQ(sync.orphan_count(), 0u);
  }
}

TEST(ChainSync, BothParkingsAreCappedAndRetriesKeepTheirOrder) {
  BlockStore store;
  ChainSync sync(store);
  for (std::uint64_t r = 0; r < ChainSync::kMaxParked + 5; ++r) {
    sync.park_retry(parked_msg(r));
  }
  EXPECT_EQ(sync.parked(), ChainSync::kMaxParked);
  for (std::uint64_t r = 0; r < ChainSync::kMaxParked + 5; ++r) {
    sync.park_future(parked_msg(r));
  }
  EXPECT_EQ(sync.parked(), 2 * ChainSync::kMaxParked);

  const std::vector<Msg> retries = sync.take_retries();
  ASSERT_EQ(retries.size(), ChainSync::kMaxParked);
  for (std::uint64_t r = 0; r < retries.size(); ++r) {
    EXPECT_EQ(retries[r].round, r);  // the first ones parked, in order
  }
  EXPECT_EQ(sync.parked(), ChainSync::kMaxParked);
  EXPECT_EQ(sync.take_future().size(), ChainSync::kMaxParked);
  EXPECT_EQ(sync.parked(), 0u);
  sync.park_retry(parked_msg(1));
  EXPECT_EQ(sync.parked(), 1u);  // a taken buffer parks again
}

}  // namespace
}  // namespace eesmr::smr
