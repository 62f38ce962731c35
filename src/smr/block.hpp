// Blocks: the unit of the linearizable log (§2 "Blocks").
//
// block.contents = Cmds, block.parent = hash of the parent block.
// We additionally record (view, round, height) — the paper's algorithms
// index blocks by view/round for equivocation detection and LockCompare,
// and height is the recursive parent-count (genesis = 0).
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"

namespace eesmr::smr {

/// A client request (opaque payload ordered by the SMR).
struct Command {
  Bytes data;

  friend bool operator==(const Command&, const Command&) = default;
};

/// SHA-256 block identifier.
using BlockHash = Bytes;  // 32 bytes

/// The digest's bytes as a std::string_view (no copy).
inline std::string_view hash_view(const BlockHash& h) {
  return {reinterpret_cast<const char*>(h.data()), h.size()};
}

/// Hasher for unordered containers keyed by BlockHash. It hashes the
/// bytes as a std::string_view, which yields the same value as
/// std::hash<std::string> on the same bytes: a table keyed this way
/// iterates in the same order as one keyed by the digest as a string,
/// and that order reaches protocol actions (orphan adoption, the
/// deepest-orphan tie-break).
struct BlockHashHasher {
  std::size_t operator()(const BlockHash& h) const noexcept {
    return std::hash<std::string_view>{}(hash_view(h));
  }
};

/// Ordering for ordered containers keyed by BlockHash: compares the bytes
/// as std::string_view, which orders exactly like std::vector's
/// operator< (unsigned bytes, shorter prefix first) without the GCC 12
/// -O3 -Wstringop-overread false positives that operator<=> draws.
struct BlockHashLess {
  bool operator()(const BlockHash& a, const BlockHash& b) const noexcept {
    return hash_view(a) < hash_view(b);
  }
};
template <class V>
using BlockHashMap = std::map<BlockHash, V, BlockHashLess>;
using BlockHashSet = std::set<BlockHash, BlockHashLess>;

struct Block {
  BlockHash parent;             ///< hash of the parent block (zeros: none)
  std::uint64_t height = 0;     ///< genesis = 0
  std::uint64_t view = 0;       ///< view in which the block was proposed
  std::uint64_t round = 0;      ///< round in which the block was proposed
  NodeId proposer = kNoNode;    ///< leader that proposed it
  std::vector<Command> cmds;    ///< Cmds

  [[nodiscard]] Bytes encode() const;
  static Block decode(BytesView data);
  /// encode().size(), without encoding.
  [[nodiscard]] std::size_t encoded_size() const;

  /// SHA-256 over the canonical encoding. Computed on the first call and
  /// carried by copies, so a block must not be modified once hashed
  /// (builds without NDEBUG assert that the carried digest is current).
  [[nodiscard]] BlockHash hash() const;

  /// Total payload bytes across commands.
  [[nodiscard]] std::size_t payload_bytes() const;

  /// Compares the wire fields; the memoized digest is not part of a
  /// block's value.
  friend bool operator==(const Block& a, const Block& b) {
    return a.parent == b.parent && a.height == b.height &&
           a.view == b.view && a.round == b.round &&
           a.proposer == b.proposer && a.cmds == b.cmds;
  }

 private:
  mutable std::array<std::uint8_t, 32> digest_{};
  mutable bool hashed_ = false;
};

/// The well-known genesis block G (height 0, no parent, no commands).
/// Its digest is memoized at initialization, so threads may share it.
const Block& genesis_block();
const BlockHash& genesis_hash();

/// A read-only committed log: blocks in ascending height, each one a
/// shared `const Block`. Copying a BlockLog copies pointers, not blocks,
/// and a copy never sees what is appended to or dropped from the
/// original later. Its iterators are random-access and yield
/// `const Block&`.
class BlockLog {
  using Slots = std::vector<std::shared_ptr<const Block>>;

 public:
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = Block;
    using difference_type = std::ptrdiff_t;
    using pointer = const Block*;
    using reference = const Block&;

    const_iterator() = default;
    explicit const_iterator(Slots::const_iterator it) : it_(it) {}

    reference operator*() const { return **it_; }
    pointer operator->() const { return it_->get(); }
    reference operator[](difference_type n) const { return *it_[n]; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(it_++); }
    const_iterator& operator--() {
      --it_;
      return *this;
    }
    const_iterator operator--(int) { return const_iterator(it_--); }
    const_iterator& operator+=(difference_type n) {
      it_ += n;
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      it_ -= n;
      return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return a.it_ - b.it_;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.it_ == b.it_;
    }
    friend std::strong_ordering operator<=>(const const_iterator& a,
                                            const const_iterator& b) {
      return (a.it_ - b.it_) <=> 0;
    }

   private:
    Slots::const_iterator it_;
  };
  using iterator = const_iterator;

  BlockLog() = default;
  BlockLog(std::initializer_list<Block> blocks) {
    for (const Block& b : blocks) append(b);
  }

  [[nodiscard]] std::size_t size() const { return blocks_.size(); }
  [[nodiscard]] bool empty() const { return blocks_.empty(); }
  const Block& operator[](std::size_t i) const { return *blocks_[i]; }
  [[nodiscard]] const Block& front() const { return *blocks_.front(); }
  [[nodiscard]] const Block& back() const { return *blocks_.back(); }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(blocks_.begin());
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(blocks_.end());
  }

  /// Append a copy of `b`.
  void append(const Block& b) {
    blocks_.push_back(std::make_shared<const Block>(b));
  }
  /// Drop the leading blocks below `height`.
  void drop_below(std::uint64_t height);

  /// Block by block, as the wire fields compare.
  friend bool operator==(const BlockLog& a, const BlockLog& b);

 private:
  Slots blocks_;
};

}  // namespace eesmr::smr
