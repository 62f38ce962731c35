#include "src/smr/chain_sync.hpp"

#include <algorithm>
#include <array>

namespace eesmr::smr {

namespace {
constexpr auto kHeight = [](const auto& kv) { return kv.second.height; };
}  // namespace

ChainSync::Offer ChainSync::offer(const Block& block) {
  if (store_.add(block)) return Offer::kStored;
  if (store_.contains(block.parent)) return Offer::kMalformed;
  // A full pool keeps its lowest orphans, the ones a backward walk
  // connects first: the highest makes room for a lower block, and any
  // other block is refused.
  if (orphans_.size() >= kMaxParked) {
    const auto highest = std::ranges::max_element(orphans_, {}, kHeight);
    if (highest->second.height <= block.height ||
        orphans_.contains(block.hash())) {
      return Offer::kOrphan;
    }
    orphans_.erase(highest);
  }
  orphans_.emplace(block.hash(), block);
  return Offer::kOrphan;
}

bool ChainSync::ask(const BlockHash& parent, sim::SimTime now) {
  if (!requested_.insert(parent).second) return false;
  if (started_ == 0) started_ = now;
  return true;
}

std::vector<Block> ChainSync::adopt() {
  std::vector<Block> adopted;
  const auto connects = [&](const auto& kv) {
    if (!store_.contains(kv.second.parent)) return false;
    if (store_.add(kv.second)) adopted.push_back(kv.second);
    return true;
  };
  // Sweep the pool until a pass connects nothing: a pass can store the
  // parent of an orphan it already went past.
  while (std::erase_if(orphans_, connects) > 0) {
  }
  return adopted;
}

const Block* ChainSync::deepest_orphan() const {
  const auto it = std::ranges::min_element(orphans_, {}, kHeight);
  return it == orphans_.end() ? nullptr : &it->second;
}

const BlockHash* ChainSync::walk_back(sim::SimTime now) {
  const Block* deepest = deepest_orphan();
  // The chains met: the episode is over, and its asks go with it. One
  // left behind would silence the next walk that reaches its hash (a
  // block the full pool evicted is fetched again that way).
  if (deepest == nullptr) end_episode(now);
  // A retried proposal can store an orphan's parent without adopting
  // the orphan, so the parent is checked here as well.
  const bool next = deepest != nullptr &&
                    !store_.contains(deepest->parent) &&
                    ask(deepest->parent, now);
  return next ? &deepest->parent : nullptr;
}

void ChainSync::truncate_below(const BlockHash& root) {
  store_.truncate_below(root);
  const std::uint64_t floor = store_.height_of(root);
  std::erase_if(orphans_,
                [floor](const auto& kv) { return kv.second.height <= floor; });
  requested_.clear();
}

sim::SimTime ChainSync::end_episode(sim::SimTime now) {
  const sim::SimTime began = started_ != 0 ? started_ : now;
  requested_.clear();
  started_ = 0;
  return began;
}

std::size_t ChainSync::serve(const BlockHash& want, Writer& w) const {
  std::array<const Block*, kMaxSyncBlocks> chain{};
  std::size_t n = 0;
  for (const Block* b = store_.get(want); b != nullptr && n < chain.size();
       b = b->height == 0 ? nullptr : store_.get(b->parent)) {
    chain[n++] = b;
  }
  if (n > 0) w.u32(static_cast<std::uint32_t>(n));
  // Deepest first, so the receiver can connect as it reads.
  for (std::size_t i = n; i-- > 0;) w.bytes(chain[i]->encode());
  return n;
}

bool ChainSync::accept(BytesView payload) {
  try {
    Reader r(payload);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count && i < kMaxSyncBlocks; ++i) {
      offer(Block::decode(r.bytes()));
    }
  } catch (const SerdeError&) {
    return false;
  }
  return true;
}

void ChainSync::park(std::vector<Msg>& buffer, const Msg& msg) {
  if (buffer.size() < kMaxParked) buffer.push_back(msg);
}

}  // namespace eesmr::smr
