// Cluster-wide verdict memo for signature verifications.
//
// A flooded frame reaches every replica, and each receiver checks the
// same (author, preimage, signature) triple. The first verifier runs the
// check and stores the verdict; later verifiers of the same triple read
// it. A verdict is a pure function of the triple, so reading it instead
// of recomputing cannot change what the simulation observes.
//
// The memo saves host time only. Energy accounting stays at the call
// sites: every replica still charges Category::kVerify for its modeled
// verification, hit or miss.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/common/bytes.hpp"
#include "src/crypto/fingerprint.hpp"

namespace eesmr::crypto {

/// FIFO-bounded verdict memo. One instance per Cluster, shared by all
/// replicas; single-threaded like the scheduler that drives it.
class VerifyMemo {
 public:
  /// Entry bound. Eviction is FIFO by insertion order, so it depends
  /// only on the sequence of checks and is deterministic.
  static constexpr std::size_t kMaxEntries = 4096;

  /// Verdict of `verify_fn()` for this triple. The first call per triple
  /// runs `verify_fn`; later calls return the stored verdict.
  template <typename VerifyFn>
  bool check(std::uint32_t author, BytesView preimage, BytesView sig,
             VerifyFn&& verify_fn) {
    return check(fingerprint(author, preimage, sig), author, preimage, sig,
                 verify_fn);
  }

  /// As above, with the triple's fingerprint(author, preimage, sig)
  /// already computed by the caller.
  template <typename VerifyFn>
  bool check(std::uint64_t fp, std::uint32_t author, BytesView preimage,
             BytesView sig, VerifyFn&& verify_fn) {
    if (Entry* e = find(fp, author, preimage, sig)) {
      ++hits_;
      e->hit = true;
      return e->ok;
    }
    const bool ok = verify_fn();
    Bytes triple;
    triple.reserve(preimage.size() + sig.size());
    triple.insert(triple.end(), preimage.begin(), preimage.end());
    triple.insert(triple.end(), sig.begin(), sig.end());
    fifo_.push_back(
        Entry{fp, author, preimage.size(), std::move(triple), ok, false});
    index_.emplace(fp, &fifo_.back());
    if (fifo_.size() > kMaxEntries) {
      const Entry& old = fifo_.front();
      auto it = index_.equal_range(old.fp).first;
      while (it->second != &old) ++it;
      index_.erase(it);
      if (!old.hit) ++wasted_;
      fifo_.pop_front();
    }
    return ok;
  }

  /// The stored verdict for this triple, if any. Counts no hit and
  /// stores nothing.
  [[nodiscard]] std::optional<bool> peek(std::uint64_t fp,
                                         std::uint32_t author,
                                         BytesView preimage,
                                         BytesView sig) const {
    const Entry* e = find(fp, author, preimage, sig);
    return e != nullptr ? std::optional<bool>(e->ok) : std::nullopt;
  }

  /// Checks answered from a stored verdict.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  /// Entries evicted without ever being hit.
  [[nodiscard]] std::uint64_t wasted() const { return wasted_; }

 private:
  /// One stored verdict with its exact triple: `triple` holds the
  /// preimage (its first `preimage_len` bytes) followed by the signature.
  struct Entry {
    std::uint64_t fp;
    std::uint32_t author;
    std::size_t preimage_len;
    Bytes triple;
    bool ok;
    bool hit;
  };

  /// The entry whose exact triple matches, among those sharing `fp`.
  Entry* find(std::uint64_t fp, std::uint32_t author, BytesView preimage,
              BytesView sig) const {
    for (auto [it, end] = index_.equal_range(fp); it != end; ++it) {
      const Entry& e = *it->second;
      if (e.author == author && e.preimage_len == preimage.size() &&
          e.triple.size() == preimage.size() + sig.size() &&
          std::equal(preimage.begin(), preimage.end(), e.triple.begin()) &&
          std::equal(sig.begin(), sig.end(),
                     e.triple.begin() + static_cast<std::ptrdiff_t>(
                                            preimage.size()))) {
        return it->second;
      }
    }
    return nullptr;
  }

  /// Entries in insertion order (front = oldest). A deque keeps element
  /// addresses stable under push_back and pop_front, so index_ can point
  /// into it.
  std::deque<Entry> fifo_;
  /// fingerprint -> entries with that fingerprint.
  std::unordered_multimap<std::uint64_t, Entry*> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t wasted_ = 0;
};

}  // namespace eesmr::crypto
