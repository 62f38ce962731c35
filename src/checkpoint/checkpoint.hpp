// Checkpointing & state transfer.
//
// EESMR's §3 acceptance rule — f+1 identical signed execution results —
// extends naturally to state: every `interval` committed commands each
// replica snapshots its application, signs the (height, block, digest)
// triple, and floods a kCheckpoint message. f+1 matching signatures form
// a CheckpointCert: a *stable checkpoint* (the stability rule NxBFT and
// the Berger et al. BFT-IoT integration use). A stable checkpoint
//
//  * advances the low-water mark: blocks, dedup sets and reply caches
//    below it are garbage-collected, bounding replica memory under
//    sustained load;
//  * certifies a snapshot for state transfer: a replica that observes a
//    certificate beyond its own height (crash recovery, late joiner)
//    fetches the snapshot, verifies cert + digest, restores, and resumes
//    from the checkpoint instead of replaying the whole chain.
//
// This header holds the wire formats and the pure bookkeeping
// (signature tallies, pending/serving snapshots); the replica wires it
// to the network, the app, and the energy meter (src/smr/replica.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/crypto/agg.hpp"
#include "src/smr/block.hpp"
#include "src/smr/message.hpp"

namespace eesmr::checkpoint {

/// What a checkpoint signature covers: the committed height, the block
/// hash at that height (so a recovering replica can re-anchor its chain)
/// and the SHA-256 digest of the snapshot payload.
struct CheckpointId {
  std::uint64_t height = 0;
  smr::BlockHash block;  ///< hash of the committed block at `height`
  Bytes digest;          ///< sha256(SnapshotPayload::encode())

  /// Domain-separated signing preimage (tag + height + block + digest).
  [[nodiscard]] Bytes preimage() const;
  [[nodiscard]] Bytes encode() const;
  static CheckpointId decode(BytesView data);

  friend bool operator==(const CheckpointId&, const CheckpointId&) = default;
};

/// Payload of one kCheckpoint message: the id plus the author's dedicated
/// signature over CheckpointId::preimage(). The dedicated signature (not
/// the enclosing Msg signature) goes into the certificate, because Msg
/// signatures cover (view, round) and replicas checkpoint the same height
/// from different rounds/views.
struct CheckpointMsg {
  CheckpointId id;
  Bytes sig;

  [[nodiscard]] Bytes encode() const;
  static CheckpointMsg decode(BytesView data);
};

/// f+1 replica signatures over the same CheckpointId — a stable
/// checkpoint. Transferable: anyone can verify it against the directory.
/// Like QuorumCert it has two wire forms (smr::CertScheme): individual
/// (author, signature) pairs, or a generation-tagged {signer bitset, one
/// aggregate signature} that stays O(1) as n grows.
struct CheckpointCert {
  CheckpointId id;
  std::vector<std::pair<NodeId, Bytes>> sigs;  ///< (author, signature)

  smr::CertScheme scheme = smr::CertScheme::kIndividual;
  // Aggregate form only:
  std::uint64_t gen = 0;         ///< membership generation of the signers
  crypto::SignerBitset signers;  ///< who contributed shares
  Bytes agg_sig;                 ///< XOR-fold of the members' shares

  [[nodiscard]] Bytes encode() const;
  static CheckpointCert decode(BytesView data);

  /// Signer count / node-ids, across both forms.
  [[nodiscard]] std::size_t signer_count() const;
  [[nodiscard]] std::vector<NodeId> signer_list() const;

  /// Fold this (individual-form, share-signed) cert into the aggregate
  /// form over a `universe`-wide bitset tagged with `generation`.
  [[nodiscard]] CheckpointCert to_aggregate(std::size_t universe,
                                            std::uint64_t generation) const;
};

/// One live entry of the exactly-once reply cache, carried inside a
/// snapshot so a restored replica deduplicates exactly like its peers.
struct ExecutedEntry {
  NodeId client = kNoNode;
  std::uint64_t req_id = 0;
  std::uint64_t height = 0;  ///< block height the request executed at
  Bytes result;

  friend bool operator==(const ExecutedEntry&, const ExecutedEntry&) =
      default;
};

/// Everything a snapshot carries beyond raw app state. All fields are
/// deterministic functions of the committed log prefix, so every correct
/// replica snapshotting the same height produces byte-identical payloads
/// (the certificate signs this encoding's hash):
///  * executed_cmds aligns the restored replica's checkpoint schedule;
///  * watermarks are the per-client contiguous-executed frontiers
///    (pool-side retransmit filtering once reply-cache entries are
///    garbage-collected);
///  * executed is the live reply cache (entries from the last interval),
///    so commit-time dedup stays identical across restored and
///    non-restored replicas.
struct SnapshotPayload {
  Bytes app_snapshot;
  std::uint64_t executed_cmds = 0;
  /// (client, contiguous executed frontier), ascending by client.
  std::vector<std::pair<NodeId, std::uint64_t>> watermarks;
  /// Reply-cache entries, ascending by (client, req_id).
  std::vector<ExecutedEntry> executed;

  [[nodiscard]] Bytes encode() const;
  static SnapshotPayload decode(BytesView data);
};

/// Per-replica checkpoint bookkeeping: the trigger schedule, pending
/// local snapshots awaiting stability, the signature tallies, and the
/// latest stable checkpoint (cert + snapshot served to lagging peers).
/// Pure logic — no I/O, no crypto; the replica charges the meter.
class CheckpointManager {
 public:
  /// `interval` = committed commands per checkpoint (0 disables);
  /// `quorum` = f+1.
  CheckpointManager(std::uint64_t interval, std::size_t quorum);

  [[nodiscard]] bool enabled() const { return interval_ > 0; }
  [[nodiscard]] std::uint64_t interval() const { return interval_; }

  // -- trigger schedule --------------------------------------------------------
  // A checkpoint is due every `interval` committed commands, or every
  // `interval` committed blocks since the previous checkpoint (the
  // replica tracks the block half), whichever comes first — so idle
  // chains of empty blocks stay truncatable and keep emitting the
  // certificates recovering replicas catch up from.
  /// Next cumulative command count at which a checkpoint is due.
  [[nodiscard]] std::uint64_t next_at() const { return next_at_; }
  [[nodiscard]] bool due(std::uint64_t executed_cmds) const {
    return enabled() && executed_cmds >= next_at_;
  }
  /// Advance past `executed_cmds` to the next interval multiple.
  void advance_schedule(std::uint64_t executed_cmds);

  // -- local snapshots ---------------------------------------------------------
  /// Remember a locally-taken snapshot until its checkpoint stabilizes.
  /// Keeps at most kMaxPending entries (oldest dropped).
  void record_local(const CheckpointId& id, Bytes payload, smr::Block block);

  // -- signature tallies -------------------------------------------------------
  /// Record one verified signature. Returns the certificate the first
  /// time a quorum assembles for a height above the current stable one
  /// (and installs it as stable, promoting a pending local snapshot to
  /// the serving slot when available). Heights at or below stable, and
  /// duplicate authors per height, are ignored.
  std::optional<CheckpointCert> add_signature(NodeId author,
                                              const CheckpointId& id,
                                              const Bytes& sig);

  /// Install an externally-obtained stable checkpoint (state transfer):
  /// becomes the serving snapshot.
  void install_stable(const CheckpointCert& cert, Bytes payload,
                      smr::Block block);

  /// Install an already-verified certificate without a payload (the
  /// aggregate scheme's collector-flooded kCheckpointCert). Promotes a
  /// matching pending local snapshot to the serving slot exactly like a
  /// quorum assembled by add_signature; returns false for heights at or
  /// below the current stable checkpoint.
  bool install_certified(const CheckpointCert& cert);

  // -- observability / serving -------------------------------------------------
  [[nodiscard]] std::uint64_t stable_height() const {
    return stable_ ? stable_->id.height : 0;
  }
  [[nodiscard]] const std::optional<CheckpointCert>& stable_cert() const {
    return stable_;
  }
  /// Serving snapshot bytes/block for `height`; nullptr unless `height`
  /// is the stable height and the snapshot is held locally.
  [[nodiscard]] const Bytes* payload_for(std::uint64_t height) const;
  [[nodiscard]] const smr::Block* block_for(std::uint64_t height) const;
  /// Local snapshots taken (observability).
  [[nodiscard]] std::uint64_t taken() const { return taken_; }
  [[nodiscard]] std::size_t tally_heights() const { return tallies_.size(); }

  /// Bound on local snapshots awaiting stability.
  static constexpr std::size_t kMaxPending = 4;

 private:
  struct Pending {
    CheckpointId id;
    Bytes payload;
    smr::Block block;
  };

  /// Remove `author`'s vote from the tally at `height` (it voted for a
  /// newer height; the old vote is obsolete).
  void drop_author_vote(NodeId author, std::uint64_t height);
  /// Drop tallies and author seats at or below `height`.
  void gc_tallies_below(std::uint64_t height);

  std::uint64_t interval_;
  std::size_t quorum_;
  std::uint64_t next_at_;
  std::uint64_t taken_ = 0;

  std::map<std::uint64_t, Pending> pending_;  ///< by height
  /// height -> encoded CheckpointId -> collected (author, sig) pairs.
  /// Bounded to one live vote per author (author_height_ tracks the
  /// seat), so Byzantine height floods cannot grow it past n entries.
  std::map<std::uint64_t, std::map<std::string,
                                   std::vector<std::pair<NodeId, Bytes>>>>
      tallies_;
  std::map<NodeId, std::uint64_t> author_height_;

  std::optional<CheckpointCert> stable_;
  Bytes serving_payload_;
  smr::Block serving_block_;
  bool serving_valid_ = false;
};

}  // namespace eesmr::checkpoint
