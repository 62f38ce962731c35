#include "src/smr/chain.hpp"

#include <algorithm>
#include <stdexcept>

namespace eesmr::smr {

BlockStore::BlockStore() {
  const Block& g = genesis_block();
  blocks_.emplace(g.hash(), g);
}

bool BlockStore::add(const Block& block) {
  const BlockHash k = block.hash();
  if (blocks_.count(k) > 0) return true;
  const auto parent = blocks_.find(block.parent);
  if (parent == blocks_.end()) return false;
  if (block.height != parent->second.height + 1) return false;
  blocks_.emplace(k, block);
  return true;
}

void BlockStore::adopt_root(const Block& block) {
  blocks_.insert_or_assign(block.hash(), block);
}

void BlockStore::truncate_below(const BlockHash& root) {
  const Block* r = get(root);
  if (r == nullptr) {
    throw std::invalid_argument("BlockStore::truncate_below: unknown root");
  }
  const std::uint64_t floor = r->height;
  std::erase_if(blocks_,
                [floor](const auto& kv) { return kv.second.height < floor; });
}

bool BlockStore::contains(const BlockHash& h) const {
  return blocks_.count(h) > 0;
}

const Block* BlockStore::get(const BlockHash& h) const {
  const auto it = blocks_.find(h);
  return it == blocks_.end() ? nullptr : &it->second;
}

bool BlockStore::extends(const BlockHash& descendant,
                         const BlockHash& ancestor) const {
  // Keys are digests, so iterator identity is digest equality.
  const auto anc = blocks_.find(ancestor);
  if (anc == blocks_.end()) return false;
  auto cur = blocks_.find(descendant);
  while (cur != blocks_.end()) {
    if (cur == anc) return true;
    if (cur->second.height <= anc->second.height) return false;
    cur = blocks_.find(cur->second.parent);
  }
  return false;
}

bool BlockStore::conflicts(const BlockHash& a, const BlockHash& b) const {
  return !extends(a, b) && !extends(b, a);
}

std::vector<Block> BlockStore::chain_between(const BlockHash& h,
                                             const BlockHash& until) const {
  std::vector<Block> out;
  const auto stop = blocks_.find(until);
  auto cur = blocks_.find(h);
  while (cur != blocks_.end() && cur != stop) {
    out.push_back(cur->second);
    if (cur->second.height == 0) {
      throw std::invalid_argument("chain_between: `until` not an ancestor");
    }
    cur = blocks_.find(cur->second.parent);
  }
  if (cur == blocks_.end()) {
    throw std::invalid_argument("chain_between: broken chain");
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace eesmr::smr
