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

void BlockStore::add_orphan(const Block& block) {
  if (orphans_.size() < kMaxOrphans) orphans_.emplace(block.hash(), block);
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
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->second.height < floor) {
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (it->second.height <= floor) {
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<Block> BlockStore::deepest_orphan() const {
  const Block* best = nullptr;
  for (const auto& [k, b] : orphans_) {
    if (best == nullptr || b.height < best->height) best = &b;
  }
  return best == nullptr ? std::nullopt : std::optional<Block>(*best);
}

std::vector<Block> BlockStore::adopt_orphans() {
  std::vector<Block> adopted;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (blocks_.count(it->second.parent) > 0) {
        if (add(it->second)) adopted.push_back(it->second);
        it = orphans_.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
  return adopted;
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
