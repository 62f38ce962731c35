// Hash-chained block store with ancestry queries and an orphan pool for
// chain synchronization ("when a node obtains a block and does not know
// its parent blocks, it will request them from the sender", §3.2).
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/smr/block.hpp"

namespace eesmr::smr {

class BlockStore {
 public:
  /// Starts containing the genesis block.
  BlockStore();

  /// Insert a block whose parent is already known. Returns false (and
  /// stores nothing) when the parent is missing — use add_orphan then —
  /// or when the height does not follow the parent's: such a block is
  /// malformed and is never stored. Re-inserting an existing block is a
  /// harmless no-op (returns true).
  bool add(const Block& block);

  /// Buffer a block whose ancestry is not yet connected.
  void add_orphan(const Block& block);

  /// Insert `block` unconditionally, with no parent check — the anchor a
  /// state transfer re-roots the chain on (the block's ancestry is
  /// attested by the checkpoint certificate, not by local parents).
  void adopt_root(const Block& block);

  /// Advance the low-water mark: drop every block strictly below `root`'s
  /// height (including genesis) and every orphan at or below it. `root`
  /// must be present; it becomes the new deepest block, so ancestry
  /// queries terminate there. Throws std::invalid_argument if `root` is
  /// unknown.
  void truncate_below(const BlockHash& root);

  /// The lowest-height buffered orphan (for backward chain sync), if any.
  [[nodiscard]] std::optional<Block> deepest_orphan() const;

  /// Try to connect orphans after new blocks arrived. Returns the blocks
  /// adopted (in ancestry order); an orphan whose height does not follow
  /// its now-known parent's is dropped.
  std::vector<Block> adopt_orphans();

  [[nodiscard]] bool contains(const BlockHash& h) const;
  [[nodiscard]] const Block* get(const BlockHash& h) const;
  /// Height of a stored block; 0 for an unknown one.
  [[nodiscard]] std::uint64_t height_of(const BlockHash& h) const {
    const Block* b = get(h);
    return b == nullptr ? 0 : b->height;
  }

  /// True iff `descendant` equals `ancestor` or transitively extends it.
  /// Ancestry queries walk parent links by map key and never hash.
  [[nodiscard]] bool extends(const BlockHash& descendant,
                             const BlockHash& ancestor) const;

  /// Two blocks conflict iff neither extends the other (fork).
  [[nodiscard]] bool conflicts(const BlockHash& a, const BlockHash& b) const;

  /// The chain from `h` down to (and excluding) `until`, deepest first.
  /// Both must be known and `h` must extend `until`.
  [[nodiscard]] std::vector<Block> chain_between(const BlockHash& h,
                                                 const BlockHash& until) const;

  [[nodiscard]] std::size_t size() const { return blocks_.size(); }
  [[nodiscard]] std::size_t orphan_count() const { return orphans_.size(); }

 private:
  /// Keyed by block.hash().
  std::unordered_map<BlockHash, Block, BlockHashHasher> blocks_;
  std::unordered_map<BlockHash, Block, BlockHashHasher> orphans_;
};

}  // namespace eesmr::smr
