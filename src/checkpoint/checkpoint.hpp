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
// This header holds the wire formats and the checkpoint agent,
// CheckpointManager: the pure logic that makes every checkpoint decision
// (when a checkpoint is due, when it is stable, where the low-water mark
// is, whether to truncate or fetch a snapshot, what to serve whom, and
// whom to ask). The replica wires it to the network, the app and the
// energy meter (src/smr/replica.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/ids.hpp"
#include "src/sim/time.hpp"
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
/// Like QuorumCert it carries its signatures in either wire form
/// (smr::CertSignatures).
struct CheckpointCert : smr::CertSignatures {
  CheckpointId id;

  [[nodiscard]] Bytes encode() const;
  static CheckpointCert decode(BytesView data);
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

/// The checkpoint agent: every checkpoint decision one replica makes.
/// It owns the trigger schedule, the pending local snapshots, the
/// signature tallies, the stable checkpoint with the snapshot served for
/// it, the low-water mark, and the requester side of a state transfer.
/// Pure logic: no I/O, no crypto, no meter. The replica signs, verifies,
/// charges, sends, runs the retry timer and truncates its state when
/// told to (src/smr/replica.cpp).
class CheckpointManager {
 public:
  /// Minimum block gap to a stable checkpoint before a replica prefers a
  /// snapshot transfer over block-by-block chain sync. In-flight lag in
  /// the blocking variants is 1-2 blocks, so 8 never triggers spuriously.
  static constexpr std::uint64_t kStateTransferGap = 8;
  /// Bound on local snapshots awaiting stability.
  static constexpr std::size_t kMaxPending = 4;

  /// A local snapshot: the id it was taken at, the encoded
  /// SnapshotPayload, and the committed block at that height.
  struct Snapshot {
    CheckpointId id;
    Bytes payload;
    smr::Block block;
  };

  /// `interval` = committed commands per checkpoint (0 disables);
  /// `quorum` = f+1.
  CheckpointManager(std::uint64_t interval, std::size_t quorum);

  [[nodiscard]] bool enabled() const { return interval_ > 0; }

  // -- trigger schedule --------------------------------------------------------
  /// Whether a checkpoint is due at the committed block at `height`,
  /// with `executed_cmds` commands committed in total. One is due every
  /// `interval` commands or every `interval` blocks since the last
  /// checkpoint taken or restored, whichever comes first: idle chains of
  /// empty blocks stay truncatable and keep emitting the certificates
  /// recovering replicas catch up from. Both inputs are functions of the
  /// committed log, so every correct replica triggers at the same blocks.
  [[nodiscard]] bool due(std::uint64_t executed_cmds,
                         std::uint64_t height) const;
  /// Height of the last checkpoint taken or restored (0 before any).
  [[nodiscard]] std::uint64_t last_height() const { return last_height_; }

  // -- local snapshots and signature tallies -----------------------------------
  /// Remember the snapshot taken at `id` (after `executed_cmds`
  /// commands) until its checkpoint stabilizes, and schedule the next
  /// one. Keeps at most kMaxPending snapshots (oldest dropped).
  void record_local(const CheckpointId& id, std::uint64_t executed_cmds,
                    Bytes payload, smr::Block block);
  /// Record one verified signature. Returns the certificate the first
  /// time a quorum assembles for a height above the current stable one,
  /// and installs it as stable. Heights at or below stable, and
  /// duplicate authors per height, are ignored.
  std::optional<CheckpointCert> add_signature(NodeId author,
                                              const CheckpointId& id,
                                              const Bytes& sig);
  /// Install an already-verified certificate that carries no snapshot
  /// (the aggregate scheme's collector-flooded kCheckpointCert), exactly
  /// like a quorum assembled by add_signature. False for heights at or
  /// below the current stable checkpoint.
  bool install_certified(const CheckpointCert& cert);
  /// Keep `cert`, the stable checkpoint's certificate in another form
  /// (the aggregate a collector folds from its share tally), as the
  /// stable certificate. The served snapshot and its serving budget stay.
  /// A certificate for another checkpoint changes nothing.
  void replace_stable_form(const CheckpointCert& cert) {
    if (stable_ && stable_->id == cert.id) stable_ = cert;
  }
  /// Install a verified snapshot fetched by state transfer, taken after
  /// `executed_cmds` commands: it becomes the stable checkpoint, the
  /// served snapshot and the low-water mark, and the schedule restarts
  /// from it. False, changing nothing, below the current stable height.
  bool install_stable(const CheckpointCert& cert, std::uint64_t executed_cmds,
                      Bytes payload, smr::Block block);

  // -- low-water mark ----------------------------------------------------------
  enum class Step { kWait, kTruncate, kTransfer };
  /// What a replica that committed up to `committed` does about the
  /// stable checkpoint: truncate below it once it holds that state,
  /// fetch its snapshot when kStateTransferGap or more blocks behind, and
  /// otherwise wait (ordinary commits or chain sync close a small gap).
  [[nodiscard]] Step low_water_step(std::uint64_t committed) const;
  /// The replica truncated below the stable checkpoint: it becomes the
  /// low-water mark. Returns the previous mark.
  std::uint64_t advance_low_water();
  /// Stable-checkpoint height below which log and state were truncated.
  [[nodiscard]] std::uint64_t low_water_mark() const { return lwm_height_; }

  // -- serving -----------------------------------------------------------------
  /// The stable snapshot to send `peer`, at most once per peer per stable
  /// checkpoint (snapshots are the largest frames in the system, and a
  /// Byzantine requester must not drain transmit energy); nullptr when
  /// none is held or `peer` already had it.
  const Snapshot* serve_to(NodeId peer);

  // -- state transfer, requester side ------------------------------------------
  /// Open a transfer to `height` whose recovery began at `started`, or
  /// retarget the one in flight to a higher `height`. Either way the
  /// signer rotation restarts. False, changing nothing, when the
  /// transfer in flight already aims at `height` or above.
  bool open_transfer(std::uint64_t height, sim::SimTime started);
  /// A state transfer is in flight.
  [[nodiscard]] bool transferring() const { return transferring_; }
  /// Height the transfer in flight (or the last one) aims at.
  [[nodiscard]] std::uint64_t transfer_height() const {
    return transfer_height_;
  }
  /// Height the transfer in flight (or the last one) was opened at; a
  /// retarget leaves it unchanged, so it names the transfer from open to
  /// finish (the recovery trace span's id).
  [[nodiscard]] std::uint64_t transfer_opened_height() const {
    return transfer_opened_height_;
  }
  /// The stable checkpoint's next signer to ask, rotating on each call
  /// and skipping `self` (a signer committed the height, so it can
  /// serve); kNoNode when no transfer is in flight or no other signer
  /// exists.
  NodeId next_transfer_peer(NodeId self);
  /// The transfer closed at `now` by an installed snapshot. Returns its
  /// recovery time.
  sim::Duration finish_transfer(sim::SimTime now);

  // -- observability -----------------------------------------------------------
  [[nodiscard]] std::uint64_t stable_height() const {
    return stable_ ? stable_->id.height : 0;
  }
  [[nodiscard]] const std::optional<CheckpointCert>& stable_cert() const {
    return stable_;
  }
  /// Local snapshots taken.
  [[nodiscard]] std::uint64_t taken() const { return taken_; }
  [[nodiscard]] std::size_t tally_heights() const { return tallies_.size(); }
  /// Completed state transfers and the recovery time of the latest one.
  [[nodiscard]] std::uint64_t state_transfers() const { return transfers_; }
  [[nodiscard]] sim::Duration last_recovery_time() const {
    return last_recovery_;
  }

 private:
  /// Make `cert` stable, promoting the matching pending snapshot (if
  /// any) to the serving slot, resetting the serving budget, and
  /// dropping pending snapshots and tallies at or below its height.
  void install(const CheckpointCert& cert);
  /// The next checkpoint is due `interval` commands after
  /// `executed_cmds` (at the next multiple) or `interval` blocks after
  /// `height`.
  void reschedule(std::uint64_t executed_cmds, std::uint64_t height);
  /// Remove `author`'s vote from the tally at `height` (it voted for a
  /// newer height; the old vote is obsolete).
  void drop_author_vote(NodeId author, std::uint64_t height);
  /// Drop tallies and author seats at or below `height`.
  void gc_tallies_below(std::uint64_t height);

  std::uint64_t interval_;
  std::size_t quorum_;
  std::uint64_t next_at_;          ///< command count the next one is due at
  std::uint64_t last_height_ = 0;  ///< last checkpoint taken or restored
  std::uint64_t taken_ = 0;

  std::map<std::uint64_t, Snapshot> pending_;  ///< by height
  /// height -> encoded CheckpointId -> collected (author, sig) pairs.
  /// Bounded to one live vote per author (author_height_ tracks the
  /// seat), so Byzantine height floods cannot grow it past n entries.
  std::map<std::uint64_t, std::map<std::string,
                                   std::vector<std::pair<NodeId, Bytes>>>>
      tallies_;
  std::map<NodeId, std::uint64_t> author_height_;

  std::optional<CheckpointCert> stable_;
  std::optional<Snapshot> serving_;
  std::set<NodeId> served_;  ///< peers sent the current serving snapshot
  std::uint64_t lwm_height_ = 0;

  bool transferring_ = false;
  std::uint64_t transfer_height_ = 0;
  std::uint64_t transfer_opened_height_ = 0;
  std::size_t signer_idx_ = 0;
  sim::SimTime transfer_started_ = 0;
  std::uint64_t transfers_ = 0;
  sim::Duration last_recovery_ = 0;
};

}  // namespace eesmr::checkpoint
