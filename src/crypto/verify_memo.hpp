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

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/bytes.hpp"

namespace eesmr::crypto {

/// FIFO-bounded verdict memo. One instance per Cluster, shared by all
/// replicas; single-threaded like the scheduler that drives it.
class VerifyMemo {
 public:
  /// Entry bound. Eviction is FIFO by insertion order, so it depends
  /// only on the sequence of checks and is deterministic.
  static constexpr std::size_t kMaxEntries = 4096;

  /// Verdict of `verify_fn()` for this triple. The first call per key
  /// runs `verify_fn`; later calls return the stored verdict.
  template <typename VerifyFn>
  bool check(std::uint32_t author, BytesView preimage, BytesView sig,
             VerifyFn&& verify_fn) {
    std::string key = make_key(author, preimage, sig);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      it->second.hit = true;
      return it->second.ok;
    }
    const bool ok = verify_fn();
    fifo_.push_back(key);
    entries_.emplace(std::move(key), Entry{ok, false});
    if (entries_.size() > kMaxEntries) {
      const auto old = entries_.find(fifo_.front());
      fifo_.pop_front();
      if (!old->second.hit) ++wasted_;
      entries_.erase(old);
    }
    return ok;
  }

  /// Checks answered from a stored verdict.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  /// Entries evicted without ever being hit.
  [[nodiscard]] std::uint64_t wasted() const { return wasted_; }

 private:
  /// Canonical key of one (author, preimage, signature) verification.
  /// Raw concatenation, not a hash: for simulated keys a SHA-256 over the
  /// preimage costs as much as the verify it would save.
  static std::string make_key(std::uint32_t author, BytesView preimage,
                              BytesView sig) {
    std::string k;
    k.reserve(8 + preimage.size() + sig.size());
    for (int i = 0; i < 4; ++i) {
      k.push_back(static_cast<char>(author >> (8 * i)));
    }
    const auto plen = static_cast<std::uint32_t>(preimage.size());
    for (int i = 0; i < 4; ++i) {
      k.push_back(static_cast<char>(plen >> (8 * i)));
    }
    k.append(preimage.begin(), preimage.end());
    k.append(sig.begin(), sig.end());
    return k;
  }

  struct Entry {
    bool ok;
    bool hit;
  };
  std::unordered_map<std::string, Entry> entries_;
  std::deque<std::string> fifo_;
  std::uint64_t hits_ = 0;
  std::uint64_t wasted_ = 0;
};

}  // namespace eesmr::crypto
