// One tally for matching votes, keyed by what a vote certifies. Every
// protocol counts its quorums here: block votes under (view, digest),
// blames and view changes under their view, MinBFT's attested commits
// under the digest alone. A key holds at most one vote per signer, in
// ascending signer order, so a certificate is built from one key's votes
// and lists its signatures in that canonical order (after Savanna's
// quorum_certificate, which records voters over the canonical signer
// order).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/smr/block.hpp"
#include "src/smr/message.hpp"

namespace eesmr::smr {

/// What a block vote certifies: the view it was cast in and the block.
/// A later view's vote for the same block lands under another key.
struct VoteKey {
  std::uint64_t view = 0;
  BlockHash digest;

  /// By view, then digest (compared as BlockHashLess does).
  friend bool operator<(const VoteKey& a, const VoteKey& b) {
    if (a.view != b.view) return a.view < b.view;
    return BlockHashLess{}(a.digest, b.digest);
  }
};

/// The block a tally key names.
inline const BlockHash& digest_of(const BlockHash& h) { return h; }
inline const BlockHash& digest_of(const VoteKey& k) { return k.digest; }

/// Votes per `Key` (ordered by `Less`), at most one per signer in [0, n).
template <class Key, class Less = std::less<Key>>
class QuorumTally {
 public:
  explicit QuorumTally(std::size_t n) : n_(n) {}

  /// Count `msg` under `key` for its author and return the key's new
  /// count, so exactly one add returns each count. 0, and nothing stored,
  /// for an author outside [0, n) or one that already voted under `key`.
  std::size_t add(const Key& key, const Msg& msg) {
    if (msg.author >= n_) return 0;
    std::vector<Msg>& v = votes_[key];
    const auto seat = std::ranges::lower_bound(v, msg.author, {}, &Msg::author);
    if (seat != v.end() && seat->author == msg.author) return 0;
    v.insert(seat, msg);
    return v.size();
  }

  [[nodiscard]] std::size_t count(const Key& key) const {
    return votes(key).size();
  }
  [[nodiscard]] bool has(const Key& key, NodeId signer) const {
    const std::vector<Msg>& v = votes(key);
    const auto seat = std::ranges::lower_bound(v, signer, {}, &Msg::author);
    return seat != v.end() && seat->author == signer;
  }
  /// Every vote under `key`, in ascending signer order.
  [[nodiscard]] const std::vector<Msg>& votes(const Key& key) const {
    static const std::vector<Msg> kNone;
    const auto it = votes_.find(key);
    return it == votes_.end() ? kNone : it->second;
  }
  /// The first `q` votes under `key` in ascending signer order: what
  /// make_cert combines.
  [[nodiscard]] std::vector<Msg> quorum_msgs(const Key& key,
                                             std::size_t q) const {
    const std::vector<Msg>& v = votes(key);
    return {v.begin(), v.begin() + std::min(q, v.size())};
  }

  /// Drop every key `pred(key)` holds for.
  template <class Pred>
  void erase_if(Pred pred) {
    std::erase_if(votes_, [&](const auto& e) { return pred(e.first); });
  }
  void clear() { votes_.clear(); }

 private:
  std::size_t n_;
  /// Sorted by signer. A vector, not a map per key: no node per vote.
  std::map<Key, std::vector<Msg>, Less> votes_;
};

}  // namespace eesmr::smr
