// Pending-command pool (the paper's txpool).
//
// Two modes:
//  * explicit: tests/examples submit concrete commands;
//  * synthetic workload: under the standard throughput assumption
//    ("clients always have pending requests"), next_batch() fabricates
//    deterministic commands of a configured size when the queue is empty.
//
// Duplicate suppression: a re-submit of a command still in the queue is
// dropped, and a tagged client request that already committed is
// dropped forever — its (client, req_id) names one operation, so a
// retransmit must not be ordered twice. Identical untagged bytes
// re-submitted after commit are a new operation and stay orderable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/crypto/fingerprint.hpp"
#include "src/smr/block.hpp"

namespace eesmr::smr {

class Mempool {
 public:
  /// `synthetic_cmd_bytes` > 0 enables the synthetic workload; each
  /// fabricated command has exactly that many bytes. `capacity` bounds
  /// the pending queue (0 = unbounded): admission control so open-loop
  /// overload sheds load instead of queueing without limit.
  explicit Mempool(std::size_t synthetic_cmd_bytes = 0,
                   std::size_t capacity = 0)
      : synthetic_bytes_(synthetic_cmd_bytes), capacity_(capacity) {}

  /// Queue a command. Returns false (and drops it) when the identical
  /// command is already pending, is a tagged client request that already
  /// committed, or the queue is at capacity (counted in dropped()).
  bool submit(Command cmd);
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Fresh commands rejected because the queue was full (duplicates are
  /// not drops — the command is already queued or committed).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Up to `max_cmds` commands for the next proposal. Commands are not
  /// removed until committed (a failed view may need to re-propose them),
  /// but repeated calls rotate through the queue.
  std::vector<Command> next_batch(std::size_t max_cmds);

  /// Drop commands that appear in a committed block (§3 "on committing a
  /// block, remove the commands in the block from the txpool").
  void remove_committed(const Block& block);

  /// Low-water-mark GC (checkpoint subsystem): forget one committed
  /// tagged-request key. Requests below the checkpoint stay deduplicated
  /// via the replica's per-client watermarks, so the key set no longer
  /// needs to remember them.
  void forget_committed(BytesView cmd_bytes) {
    const auto it = committed_keys_.find(cmd_bytes);
    if (it != committed_keys_.end()) committed_keys_.erase(it);
  }
  [[nodiscard]] std::size_t committed_keys() const {
    return committed_keys_.size();
  }

  [[nodiscard]] std::uint64_t synthesized() const { return synth_counter_; }

  /// Queued-but-uncommitted tagged requests of one client. The replica's
  /// per-client admission cap checks this BEFORE paying for signature
  /// verification: it reflects actual pool contents, so commits of
  /// copies this replica never pooled cannot skew it.
  [[nodiscard]] std::size_t client_pending(NodeId client) const {
    const auto it = client_pending_.find(client);
    return it == client_pending_.end() ? 0 : it->second;
  }

 private:
  std::size_t synthetic_bytes_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  /// Hash and equality over exact command bytes, transparent so that a
  /// lookup by BytesView copies nothing. Iteration order is never used.
  /// Not noexcept, so the sets cache each node's hash instead of
  /// re-fingerprinting nodes while walking a bucket.
  struct BytesHash {
    using is_transparent = void;
    std::size_t operator()(BytesView v) const {
      return crypto::fingerprint(v);
    }
  };
  struct BytesEqual {
    using is_transparent = void;
    bool operator()(BytesView a, BytesView b) const {
      return std::ranges::equal(a, b);
    }
  };
  template <typename Key>
  using BytesSet = std::unordered_set<Key, BytesHash, BytesEqual>;

  /// A queued command and, for a tagged client request, its client.
  struct Queued {
    Command cmd;
    std::optional<NodeId> client;
  };
  std::map<NodeId, std::size_t> client_pending_;
  std::deque<Queued> queue_;
  /// Commands currently in queue_ (dedup on submit).
  BytesSet<Bytes> pending_keys_;
  /// Committed tagged client requests (rejects late retransmits).
  BytesSet<Bytes> committed_keys_;
  std::uint64_t synth_counter_ = 0;
};

}  // namespace eesmr::smr
