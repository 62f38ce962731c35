#include "src/smr/block.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/common/serde.hpp"
#include "src/crypto/sha256.hpp"

namespace eesmr::smr {

Bytes Block::encode() const {
  Writer w(encoded_size());
  w.bytes(parent);
  w.u64(height);
  w.u64(view);
  w.u64(round);
  w.u32(proposer);
  w.u32(static_cast<std::uint32_t>(cmds.size()));
  for (const Command& c : cmds) w.bytes(c.data);
  return w.take();
}

Block Block::decode(BytesView data) {
  Reader r(data);
  Block b;
  b.parent = r.bytes();
  b.height = r.u64();
  b.view = r.u64();
  b.round = r.u64();
  b.proposer = r.u32();
  const std::uint32_t n = r.u32();
  // A hostile count must not drive allocation: each command needs at
  // least a 4-byte length prefix, so cap the reserve by what the input
  // could possibly hold (the loop then throws on the missing data).
  b.cmds.reserve(std::min<std::size_t>(n, r.remaining() / 4 + 1));
  for (std::uint32_t i = 0; i < n; ++i) b.cmds.push_back({r.bytes()});
  r.expect_done();
  return b;
}

std::size_t Block::encoded_size() const {
  // Length-prefixed parent, height/view/round, proposer, command count,
  // then each length-prefixed command.
  std::size_t size = 4 + parent.size() + 3 * 8 + 4 + 4;
  for (const Command& c : cmds) size += 4 + c.data.size();
  return size;
}

BlockHash Block::hash() const {
  if (!hashed_) {
    digest_ = crypto::Sha256::hash(encode());
    hashed_ = true;
  } else {
    assert(digest_ == crypto::Sha256::hash(encode()) &&
           "block modified after it was hashed");
  }
  return BlockHash(digest_.begin(), digest_.end());
}

std::size_t Block::payload_bytes() const {
  std::size_t total = 0;
  for (const Command& c : cmds) total += c.data.size();
  return total;
}

const Block& genesis_block() {
  static const Block g = [] {
    Block b;
    b.parent = Bytes(32, 0);
    (void)b.hash();  // memoize before any thread can share the block
    return b;
  }();
  return g;
}

const BlockHash& genesis_hash() {
  static const BlockHash h = genesis_block().hash();
  return h;
}

void BlockLog::drop_below(std::uint64_t height) {
  const auto keep = std::find_if(
      blocks_.begin(), blocks_.end(),
      [height](const auto& b) { return b->height >= height; });
  blocks_.erase(blocks_.begin(), keep);
}

bool operator==(const BlockLog& a, const BlockLog& b) {
  return std::equal(
      a.blocks_.begin(), a.blocks_.end(), b.blocks_.begin(), b.blocks_.end(),
      [](const auto& x, const auto& y) { return x == y || *x == *y; });
}

}  // namespace eesmr::smr
