// Chain synchronization (§3.2): "when a node obtains a block and does not
// know its parent blocks, it will request them from the sender". The
// component holds what a replica keeps for that rule: the orphan pool of
// blocks whose ancestry is not connected yet, the parent hashes already
// asked for, the clock of the current sync episode, and the messages
// parked until a block connects or a later view begins. One cap bounds
// every buffer, so a Byzantine peer cannot grow any of them.
//
// Pure logic — no I/O, no crypto, no meter; the replica signs, verifies,
// sends and re-dispatches as the component says (src/smr/replica.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/serde.hpp"
#include "src/sim/time.hpp"
#include "src/smr/chain.hpp"
#include "src/smr/message.hpp"

namespace eesmr::smr {

class ChainSync {
 public:
  /// Each buffer — the orphan pool and both message parkings — holds at
  /// most this many entries (bounded against Byzantine memory pressure).
  static constexpr std::size_t kMaxParked = 4096;
  /// Cap on blocks per kSyncResponse, served and accepted (a Byzantine
  /// peer can ask often; the per-response size must stay bounded).
  static constexpr std::size_t kMaxSyncBlocks = 64;

  /// Works on `store`, which must outlive the component.
  explicit ChainSync(BlockStore& store) : store_(store) {}

  // -- blocks ------------------------------------------------------------------
  /// What offer() made of a block: stored (its parent was known),
  /// malformed (the parent is known but the height does not follow it:
  /// dropped), or an orphan (the parent is unknown).
  enum class Offer { kStored, kMalformed, kOrphan };
  /// Store `block`, or pool it as an orphan when its parent is unknown.
  /// A full pool evicts its highest orphan for a lower block and refuses
  /// any other, so an honest gap deeper than the pool still connects
  /// from the bottom up.
  Offer offer(const Block& block);
  /// The ask rule: true the first time `parent` is asked for in this
  /// episode (since the last truncation or episode end). The first ask
  /// of an episode starts its clock at `now`.
  bool ask(const BlockHash& parent, sim::SimTime now);
  /// Connect every orphan whose parent is now stored. Returns the blocks
  /// adopted, in ancestry order; an orphan whose height does not follow
  /// its parent's is dropped.
  std::vector<Block> adopt();
  /// The backward-walk step after a sync response: the parent of the
  /// deepest orphan, when it is neither stored nor asked yet (so the
  /// walk goes on from there), else nullptr. An empty pool ends the
  /// episode (end_episode): the chains met. The pointer is valid until
  /// the pool next changes.
  const BlockHash* walk_back(sim::SimTime now);
  /// Drop every stored block below `root` (BlockStore::truncate_below)
  /// and every orphan at or below it; the pending asks go too.
  void truncate_below(const BlockHash& root);
  /// The gap closed (a state transfer, or the chains met): the asks are
  /// cleared and the clock reset. Returns when the episode began, or
  /// `now` when none was open.
  sim::SimTime end_episode(sim::SimTime now);

  // -- serving -------------------------------------------------------------------
  /// Encode the kSyncResponse payload for a peer missing `want` into `w`:
  /// the block and its ancestors, deepest first, at most kMaxSyncBlocks
  /// and stopping at genesis. Returns the block count; 0 (nothing
  /// written) when `want` is not stored.
  std::size_t serve(const BlockHash& want, Writer& w) const;
  /// Offer every block of a kSyncResponse payload, up to kMaxSyncBlocks,
  /// deepest first. False for a malformed payload, after offering the
  /// blocks before the fault.
  bool accept(BytesView payload);

  // -- parked messages -------------------------------------------------------------
  /// Park a message for a view the replica has not entered yet.
  void park_future(const Msg& msg) { park(future_, msg); }
  /// Park a message whose block waits on chain sync.
  void park_retry(const Msg& msg) { park(retry_, msg); }
  /// Take the parked messages, leaving the buffer empty.
  std::vector<Msg> take_future() { return std::move(future_); }
  std::vector<Msg> take_retries() { return std::move(retry_); }
  std::size_t parked() const { return future_.size() + retry_.size(); }

  [[nodiscard]] std::size_t orphan_count() const { return orphans_.size(); }
  /// The lowest-height orphan (the first in pool order on a tie), or
  /// nullptr for an empty pool.
  [[nodiscard]] const Block* deepest_orphan() const;

 private:
  static void park(std::vector<Msg>& buffer, const Msg& msg);

  BlockStore& store_;
  /// Keyed by block.hash(). Adoption and the deepest-orphan tie-break
  /// follow this table's iteration order.
  std::unordered_map<BlockHash, Block, BlockHashHasher> orphans_;
  BlockHashSet requested_;
  /// When the current episode began (0 = none outstanding): the recovery
  /// clock for snapshot pushes answering a sync request.
  sim::SimTime started_ = 0;
  std::vector<Msg> future_;
  std::vector<Msg> retry_;
};

}  // namespace eesmr::smr
