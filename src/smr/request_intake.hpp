// Pool-time bookkeeping for client requests: the free drops that run
// before a request's metered signature verification, and the
// verified-bytes cache that lets the commit path skip re-verifying a
// request whose exact bytes already passed at pool time.
//
// Pure logic — no I/O, no crypto, no meter; the replica verifies, pools,
// forwards and charges (src/smr/replica.cpp). The cache is indexed by a
// 64-bit crypto::fingerprint of the command bytes, a data-structure
// detail (a real node would index by pointer) that is not charged; each
// entry keeps the exact bytes, and only a byte-equal command matches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"

namespace eesmr::smr {

class RequestIntake {
 public:
  /// Garbage-flood early drop: after this many consecutive failed
  /// request verifications from one client the filter engages...
  static constexpr std::uint32_t kBadSigThreshold = 3;
  /// ...and only every kBadSigRecheck'th frame still reaches the metered
  /// verify (deterministic sampling: reproducible runs, and a client that
  /// turns honest again is re-admitted within a bounded number of frames).
  static constexpr std::uint64_t kBadSigRecheck = 16;

  /// `client_pending_cap`: max pooled-but-uncommitted requests per client
  /// (0 = unbounded).
  explicit RequestIntake(std::size_t client_pending_cap)
      : cap_(client_pending_cap) {}

  enum class Screen { kAdmit, kCapDrop, kEarlyDrop };
  /// The free drops for a not-yet-executed request from `client`, which
  /// holds `pending` uncommitted slots in the pool. The per-client cap
  /// comes first: a client flooding unique req_ids holds at most the cap.
  /// Then the early drop: a client whose last kBadSigThreshold requests
  /// all failed verification is almost certainly flooding garbage, so
  /// only every kBadSigRecheck'th frame is admitted. Each drop is counted.
  [[nodiscard]] Screen screen(NodeId client, std::size_t pending);
  /// The metered verification verdict for a request from `client`: a
  /// failure counts toward the early drop, a success disarms it.
  void verified(NodeId client, bool ok);

  /// Remember `cmd`, whose embedded signature just verified at pool
  /// time, with the committed height current now.
  void remember_verified(BytesView cmd, std::uint64_t height);
  /// Consume the entry for exactly these bytes. True (a counted hit) if
  /// there was one: entries are single-use, so a duplicate copy in a
  /// later block pays the re-verify.
  bool take_verified(BytesView cmd);
  /// Low-water GC: drop entries remembered at or below `height`. They
  /// sat uncommitted for a full checkpoint interval; a late commit of
  /// those bytes just re-pays the verify.
  void gc_verified(std::uint64_t height);
  /// State transfer: pool state predating the snapshot is void.
  void clear_verified() { verified_.clear(); }
  /// Count one request forwarded to the leader.
  void count_forward() { ++forwarded_; }

  /// Requests dropped by the per-client pending cap.
  [[nodiscard]] std::uint64_t cap_drops() const { return cap_drops_; }
  /// Frames rejected by the early drop before the metered verify.
  [[nodiscard]] std::uint64_t early_drops() const { return early_drops_; }
  /// Commit-time re-verifications the verified-bytes cache skipped.
  [[nodiscard]] std::uint64_t verified_hits() const { return verified_hits_; }
  /// Client requests forwarded to the leader (unicast-style request
  /// streams only).
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }

 private:
  std::size_t cap_;
  /// Consecutive failed verifications per client.
  std::map<NodeId, std::uint32_t> bad_sigs_;
  /// Frames seen from a throttled client (drives the 1-in-kBadSigRecheck
  /// re-admission).
  std::map<NodeId, std::uint64_t> flood_seen_;
  /// Verified request bytes and the committed height when remembered.
  struct Verified {
    Bytes cmd;
    std::uint64_t height;
  };
  /// Fingerprint of the command bytes -> entries with that fingerprint.
  /// A take matches the exact bytes a block carries, so a Byzantine
  /// leader proposing altered bytes misses and still pays (and fails)
  /// the re-check, even if its bytes share a fingerprint.
  std::unordered_multimap<std::uint64_t, Verified> verified_;
  std::uint64_t cap_drops_ = 0;
  std::uint64_t early_drops_ = 0;
  std::uint64_t verified_hits_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace eesmr::smr
