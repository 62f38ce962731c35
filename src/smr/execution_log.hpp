// Exactly-once execution of client requests (§3's client model): a
// request executes once, however many committed blocks carry it, and a
// retransmit gets the stored reply instead of a second execution.
//
// The log keeps the first result per (client, req_id), each client's
// contiguous executed frontier, and the committed-command count the
// checkpoint schedule runs on. Entries are garbage-collected at
// checkpoint-TAKING points, which are a deterministic function of the
// committed log, so every correct replica holds the same entries at the
// same log position and makes the same commit-time dedup decisions.
// Snapshots carry the live entries, so a restored replica agrees too.
//
// A duplicate surfacing after its entry's GC re-executes, consistently
// on every correct replica. Exactly-once therefore holds within the
// retention window and, beyond it, for every id at or below the
// frontier. An executed id ABOVE a frontier gap (a lower id shed by
// admission control) whose retransmits outlive the window can
// re-execute, again consistently everywhere.
//
// Pure logic — no I/O, no crypto, no meter; the replica executes the
// app, verifies signatures and sends replies (src/smr/replica.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "src/checkpoint/checkpoint.hpp"
#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"

namespace eesmr::smr {

class ExecutionLog {
 public:
  /// The stored result of an executed (client, req_id), or nullptr when
  /// it has not executed or its entry was garbage-collected.
  [[nodiscard]] const Bytes* find(NodeId client, std::uint64_t req_id) const;
  /// True when `req_id` is at or below `client`'s contiguous executed
  /// frontier: it executed and was acknowledged, even if its entry is
  /// gone. Pool-side only — the commit path never consults it.
  [[nodiscard]] bool at_or_below_frontier(NodeId client,
                                          std::uint64_t req_id) const;
  /// Record the first execution of (client, req_id) in the block at
  /// `height`, then advance the client's frontier through any
  /// out-of-order entries this one connects. Returns the stored result.
  const Bytes& record(NodeId client, std::uint64_t req_id, Bytes result,
                      std::uint64_t height);
  /// Count `n` committed commands of any kind.
  void add_commands(std::uint64_t n) { executed_cmds_ += n; }

  /// Checkpoint-taking GC at the block at `height`: drop the entries
  /// recorded at or below the previous cut (they survived a full
  /// interval), then make `height` the cut.
  void gc_at_checkpoint(std::uint64_t height);
  /// This log in the snapshot form; `app_snapshot` is left to the caller.
  [[nodiscard]] checkpoint::SnapshotPayload snapshot() const;
  /// Replace (not merge) the whole log with `payload`'s, a snapshot taken
  /// at checkpoint `height`, which becomes the cut.
  void restore(const checkpoint::SnapshotPayload& payload,
               std::uint64_t height);

  /// Committed commands, cumulative (the checkpoint schedule's input).
  [[nodiscard]] std::uint64_t executed_cmds() const { return executed_cmds_; }
  /// Height of the previous taken checkpoint (the GC cut).
  [[nodiscard]] std::uint64_t cut() const { return cut_; }
  /// Live reply-cache entries (bounded by checkpoint GC).
  [[nodiscard]] std::size_t size() const { return executed_.size(); }

 private:
  struct Entry {
    Bytes result;
    std::uint64_t height = 0;  ///< block height the request executed at
  };
  std::map<std::pair<NodeId, std::uint64_t>, Entry> executed_;
  /// Per-client CONTIGUOUS executed frontier: the largest F such that
  /// req_ids 1..F have all executed (clients issue ascending ids from 1).
  /// Deliberately NOT the max executed id: an id shed by admission
  /// control while its successors committed sits in a gap below the
  /// max, and a max-based floor would drop its retransmits forever.
  std::map<NodeId, std::uint64_t> frontier_;
  std::uint64_t executed_cmds_ = 0;
  std::uint64_t cut_ = 0;
};

}  // namespace eesmr::smr
