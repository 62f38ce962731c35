// Shared replica plumbing for every protocol implementation: signing and
// verification with energy metering, flood-router communication, the
// block store with chain synchronization, the committed log, and the I/O
// of checkpointing and state transfer. Three pure-logic components decide
// and the replica acts: RequestIntake (pool-time drops and the
// verified-bytes cache), ExecutionLog (exactly-once execution and the
// reply cache checkpoints snapshot) and checkpoint::CheckpointManager,
// the checkpoint agent (schedule, stable checkpoint, low-water mark,
// snapshot serving and the requester side of state transfer).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/checkpoint/checkpoint.hpp"
#include "src/common/serde.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/verify_memo.hpp"
#include "src/energy/cost_model.hpp"
#include "src/energy/meter.hpp"
#include "src/net/channel.hpp"
#include "src/net/flood.hpp"
#include "src/obs/prof.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/scheduler.hpp"
#include "src/smr/app.hpp"
#include "src/smr/chain.hpp"
#include "src/smr/execution_log.hpp"
#include "src/smr/mempool.hpp"
#include "src/smr/membership.hpp"
#include "src/smr/message.hpp"
#include "src/smr/quorum_tally.hpp"
#include "src/smr/request.hpp"
#include "src/smr/request_intake.hpp"

namespace eesmr::smr {

struct ReplicaConfig {
  NodeId id = 0;
  std::size_t n = 4;
  std::size_t f = 1;
  /// Vote/commit quorum size. 0 resolves to the synchronous-model default
  /// f+1; partially-synchronous backends (PBFT) set 2f+1, trusted-component
  /// backends (MinBFT) keep f+1 at n=2f+1. Checkpoint certificates always
  /// need f+1 signatures (one correct attester) regardless of this value.
  std::size_t quorum = 0;
  /// End-to-end Δ: upper bound on correct-sender message delivery,
  /// including flooding across the partially connected graph.
  sim::Duration delta = sim::milliseconds(50);
  /// Commands per proposed block and synthetic command size.
  std::size_t batch_size = 1;
  std::size_t cmd_bytes = 16;
  std::shared_ptr<crypto::Keyring> keyring;

  /// Certificate wire scheme: individual (author, signature) pairs, or
  /// signer-bitset + one aggregate signature (O(1) certs). Under
  /// kAggregate, vote-class messages and checkpoint attestations are
  /// share-signed with `agg` so their signatures fold into certificates.
  CertScheme cert_scheme = CertScheme::kIndividual;
  /// Aggregate-scheme key directory (required iff cert_scheme is
  /// kAggregate); shared across the cluster like `keyring`.
  std::shared_ptr<crypto::AggKeyring> agg;
  /// Nodes in the genesis membership generation {0..initial_members-1}.
  /// 0 resolves to n. Replicas in [initial_members, n) are spares that
  /// only become signers when a committed policy block admits them.
  std::size_t initial_members = 0;

  /// Per-stream dissemination policies for this replica's typed
  /// channels. Entries left at Kind::kDefault resolve to the protocol's
  /// default for that stream (Flood everywhere; Sync HotStuff resolves
  /// its vote stream to LocalKcast). When the request stream runs a
  /// unicast-style policy (RoutedUnicast / TargetedSubset), replicas
  /// forward freshly pooled client requests to the current leader so a
  /// submission that missed the leader still gets ordered.
  net::ChannelPolicies channels;

  /// Cluster-wide verdict memo (one per cluster). Not owned; nullptr
  /// verifies every signature physically. Saves host time only: verdicts
  /// and energy accounting are the same with or without it.
  crypto::VerifyMemo* memo = nullptr;

  // -- checkpointing & admission control (src/checkpoint/) -------------------
  /// Committed commands per stable checkpoint (0 = checkpointing off).
  /// Distinct from EesmrOptions::checkpoint_interval, which is the §3.5
  /// signature-batching round interval.
  std::uint64_t checkpoint_interval = 0;
  /// Mempool pending-queue bound (0 = unbounded): open-loop overload is
  /// shed instead of queueing without limit.
  std::size_t mempool_capacity = 0;
  /// Max pooled-but-uncommitted requests per client (0 = unbounded): a
  /// Byzantine client flooding unique req_ids cannot exhaust the pool.
  std::size_t client_pending_cap = 0;

  /// Structured event tracer for the commit path, checkpoints and state
  /// transfers (src/obs/trace.hpp). Not owned; nullptr disables tracing.
  obs::Tracer* tracer = nullptr;

  /// Deterministic profiler (src/obs/prof.hpp): per-site crypto op
  /// counts, per-stream codec bytes, early-drop counting and
  /// request-scoped flow tracing. Not owned; nullptr disables profiling.
  prof::Profiler* profiler = nullptr;
};

/// Scripted Byzantine behaviour of one replica in the fault experiments
/// (§5.6, Fig 2e / Fig 3). Every protocol takes this one config.
enum class ByzantineMode {
  kHonest,
  /// Stop participating entirely at the trigger (no-progress view change
  /// when this node leads).
  kCrash,
  /// Propose two conflicting blocks at the trigger, flooded to everyone:
  /// the equivocation view-change scenario.
  kEquivocate,
  /// Equivocate, but send one conflicting proposal on the first out-edge
  /// only; detection then relies on honest re-broadcast. EESMR only: the
  /// baselines treat it as kEquivocate.
  kEquivocateSelective,
};

struct ByzantineConfig {
  ByzantineMode mode = ByzantineMode::kHonest;
  /// Steady-state round (EESMR) or block height (baselines) to act at.
  std::uint64_t trigger = 0;

  [[nodiscard]] bool equivocates() const {
    return mode == ByzantineMode::kEquivocate ||
           mode == ByzantineMode::kEquivocateSelective;
  }
};

/// Byzantine outbound interception (src/adversary): consulted for every
/// outgoing protocol message of a replica it is installed on. Returning
/// false withholds the message — it was built and signed (that energy is
/// already charged, as a real traitor would pay it) but never reaches
/// the radio. `dest` is kNoNode for broadcasts. This is the per-stream
/// selective-withholding / vote-suppression primitive.
class OutboundPolicy {
 public:
  virtual ~OutboundPolicy() = default;
  [[nodiscard]] virtual bool allow(const Msg& m, NodeId dest) = 0;
};

/// Base class for protocol replicas. Subclasses implement start() and
/// handle(); the base dispatches, chain-synchronizes, and meters.
class ReplicaBase : public net::FloodClient {
 public:
  ReplicaBase(net::Network& net, ReplicaConfig cfg, energy::Meter* meter);
  ~ReplicaBase() override = default;

  virtual void start() = 0;

  // -- observability -----------------------------------------------------------
  [[nodiscard]] NodeId id() const { return cfg_.id; }
  [[nodiscard]] const ReplicaConfig& config() const { return cfg_; }
  /// Retained committed log, in height order (excluding genesis).
  /// Checkpointing truncates the prefix at or below the low-water mark;
  /// committed_height() counts every block ever committed (one per
  /// height since genesis).
  [[nodiscard]] const std::vector<Block>& log() const { return log_; }
  [[nodiscard]] std::uint64_t current_view() const { return v_cur_; }
  [[nodiscard]] const BlockStore& store() const { return store_; }
  [[nodiscard]] Mempool& mempool() { return mempool_; }
  [[nodiscard]] const Mempool& mempool() const { return mempool_; }
  [[nodiscard]] const BlockHash& committed_tip() const {
    return committed_tip_;
  }
  [[nodiscard]] std::uint64_t committed_height() const {
    return committed_height_;
  }

  // -- checkpoint / state-transfer observability -------------------------------
  /// The checkpoint agent: stable checkpoint, low-water mark, snapshots
  /// taken, completed state transfers and the latest recovery time.
  [[nodiscard]] const checkpoint::CheckpointManager& checkpoints() const {
    return ckpt_;
  }
  /// Exactly-once execution state: the reply cache and client frontiers.
  [[nodiscard]] const ExecutionLog& execution() const { return exec_; }
  /// Pool-time request bookkeeping: drop counters, verified-bytes cache
  /// hits and leader forwards.
  [[nodiscard]] const RequestIntake& intake() const { return intake_; }
  /// Blocks in the request-flow hook cache (bounded by checkpoint GC).
  [[nodiscard]] std::size_t prof_block_cache_entries() const {
    std::size_t n = 0;
    for (const auto& [height, blocks] : prof_block_cache_) n += blocks.size();
    return n;
  }
  /// Verified-signature cache (votes / checkpoint attestations): metered
  /// re-verifications skipped at certificate tallies.
  [[nodiscard]] std::uint64_t sig_cache_hits() const {
    return sig_cache_hits_;
  }
  /// Sparse flood-router dedup entries currently held (seen-window
  /// tails; bounded even under adversarial duplication/reordering).
  [[nodiscard]] std::size_t flood_dedup_entries() const {
    return router_.dedup_tail_entries();
  }

  /// Harness hook: while offline every delivery is dropped (a crashed /
  /// not-yet-spawned replica). Going online again models recovery; the
  /// replica then catches up by chain sync or state transfer. The
  /// offline→online edge fires on_restart() so protocols re-arm timers
  /// that lapsed while down (a timeout that fires offline is swallowed
  /// and would otherwise never re-schedule itself).
  void set_online(bool online) {
    const bool was = online_;
    online_ = online;
    if (online && !was) on_restart();
  }
  [[nodiscard]] bool online() const { return online_; }

  /// Install (or clear) a Byzantine outbound filter. Not owned; must
  /// outlive the replica while installed.
  void set_outbound_policy(OutboundPolicy* policy) { outbound_ = policy; }

  /// Scripted-fault harness hook: a replica whose outgoing traffic is
  /// scripted away (withhold filter, lossy links) can legitimately
  /// commit a private fork nobody else saw — e.g. a withholding leader
  /// self-accepts the proposals it never sent, then observes the view
  /// change move past them. Such a node is excluded from correctness
  /// accounting, so commit_chain treats the conflict as a no-op instead
  /// of asserting (honest replicas keep the hard assertion).
  void set_tolerate_fork(bool tolerate) { tolerate_fork_ = tolerate; }

  /// Attach an execution-layer state machine: every committed command is
  /// applied in log order; a client request's result is the signed reply
  /// a client matches f+1-fold (§3). The app must outlive the replica.
  void attach_app(StateMachine* app) { app_ = app; }
  [[nodiscard]] StateMachine* app() const { return app_; }

  /// Round-robin leader assignment over the active signer set
  /// (Leader(v) in the paper; identical to `view % n` until a committed
  /// policy block changes the membership).
  [[nodiscard]] NodeId leader_of(std::uint64_t view) const {
    return membership_.leader_at(view);
  }
  [[nodiscard]] bool is_leader() const {
    return leader_of(v_cur_) == cfg_.id;
  }

  // -- membership observability ------------------------------------------------
  [[nodiscard]] const MembershipState& membership() const {
    return membership_;
  }
  [[nodiscard]] std::uint64_t membership_generation() const {
    return membership_.generation();
  }
  /// Committed policy blocks applied by this replica.
  [[nodiscard]] std::uint64_t membership_changes() const {
    return membership_changes_;
  }

  // -- Byzantine checkpoint harness hooks (src/adversary) ----------------------
  /// Broadcast checkpoint attestations over a forged snapshot digest
  /// (the local tally keeps the honest one — a real attacker stays
  /// internally consistent). Honest nodes must never assemble a stable
  /// certificate from the forged digest.
  void set_forge_checkpoint_digest(bool v) { forge_ckpt_ = v; }
  /// Refuse to serve snapshots (state-transfer starvation): requesters
  /// must recover by rotating to another checkpoint signer.
  void set_withhold_snapshots(bool v) { withhold_snap_ = v; }

 protected:
  // -- crypto with energy metering ------------------------------------------------
  /// Charge `mj` of `cat` energy to the meter, if there is one.
  void charge(energy::Category cat, double mj);
  /// An unsigned message from this replica in the current view, for
  /// types authenticated by an embedded signature or attestation.
  [[nodiscard]] Msg unsigned_msg(MsgType type, std::uint64_t round,
                                 Bytes data) const {
    Msg m;
    m.type = type;
    m.view = v_cur_;
    m.round = round;
    m.author = cfg_.id;
    m.data = std::move(data);
    return m;
  }
  /// Build and sign a message in the current view.
  Msg make_msg(MsgType type, std::uint64_t round, Bytes data) {
    return make_msg(type, v_cur_, round, std::move(data));
  }
  /// Build and sign a message in `view` (view-change traffic names the
  /// view it moves to). Under the aggregate scheme certificate-bound
  /// types carry shares, so they fold into certificates.
  Msg make_msg(MsgType type, std::uint64_t view, std::uint64_t round,
               Bytes data);
  /// Verify a message signature (drops author range errors too).
  [[nodiscard]] bool verify_msg(const Msg& m);
  [[nodiscard]] bool verify_qc(const QuorumCert& qc, std::size_t quorum_size);
  /// Verify a checkpoint certificate, charging one verification per
  /// contained signature (mirrors verify_qc).
  [[nodiscard]] bool verify_checkpoint_cert(
      const checkpoint::CheckpointCert& cert);
  /// Running the aggregate certificate scheme?
  [[nodiscard]] bool aggregate_certs() const {
    return cfg_.cert_scheme == CertScheme::kAggregate;
  }
  /// Assemble a certificate from verified matching messages under the
  /// configured scheme: QuorumCert::combine, folded into the bitset +
  /// aggregate form (tagged with the current membership generation) when
  /// the aggregate scheme is on. Charges the combine cost and counts the
  /// certificate's wire bytes against the profiler's "cert" component.
  [[nodiscard]] QuorumCert make_cert(const std::vector<Msg>& msgs);
  /// Hash a block, charging hash energy.
  [[nodiscard]] BlockHash hash_block(const Block& b);
  [[nodiscard]] std::size_t quorum() const {
    return cfg_.quorum != 0 ? cfg_.quorum : cfg_.f + 1;
  }

  // -- communication ---------------------------------------------------------------
  // All protocol traffic goes through typed channels: one per
  // energy::Stream, each with its own dissemination policy
  // (ReplicaConfig::channels). broadcast() disseminates per the policy
  // of the message type's stream; send() is point-to-point on that
  // stream's channel regardless of policy.
  void broadcast(const Msg& m);
  void send(NodeId to, const Msg& m);
  /// The typed channel for one stream (open for the replica's lifetime).
  [[nodiscard]] net::Channel& channel(energy::Stream s) {
    return *channels_[static_cast<std::size_t>(s)];
  }
  /// Constructor-time override point for protocol-default policies
  /// (e.g. Sync HotStuff's LocalKcast votes). Call before start().
  void set_channel_policy(energy::Stream s, net::DisseminationPolicy p) {
    channel(s).set_policy(p);
  }
  [[nodiscard]] net::FloodRouter& router() { return router_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  // -- out-of-order messages -------------------------------------------------------
  /// Park a message for a view this replica has not entered yet (bounded
  /// against Byzantine memory pressure).
  void buffer_future(const Msg& msg);
  /// True for a message of the current view. A later view's message is
  /// parked by buffer_future(); an earlier view's is dropped.
  bool for_current_view(const Msg& msg) {
    if (msg.view > v_cur_) buffer_future(msg);
    return msg.view == v_cur_;
  }
  /// Park a message whose block waits on chain sync: re-dispatched just
  /// before the next on_chain_connected().
  void retry_on_connect(const Msg& msg) { retry_.push_back(msg); }
  /// Re-dispatch every parked message through handle(): the chain-sync
  /// retries first, then the future-view messages.
  void drain_buffered();
  /// A predicate on block hashes and tally keys: true when the block is
  /// stored at or below `height`, so its vote state can go at that
  /// low-water mark. Vote state for a block not in the store is kept,
  /// since votes may arrive before their block.
  [[nodiscard]] auto settled_at(std::uint64_t height) const {
    return [this, height](const auto& key) {
      const Block* b = store_.get(digest_of(key));
      return b != nullptr && b->height <= height;
    };
  }

  // -- chain handling --------------------------------------------------------------
  /// Add `block` to the store. If the parent is unknown, stash it as an
  /// orphan and request ancestors from `origin` (chain synchronization).
  /// Returns true when the block is connected.
  bool integrate_block(const Block& block, NodeId origin);
  /// Called when a previously-orphaned block becomes connected, after
  /// the chain-sync retries were re-dispatched.
  virtual void on_chain_connected(const Block& block);

  /// Commit `h` and all its uncommitted ancestors (Algorithm 2 line 280).
  /// No-op if already committed. Throws std::logic_error if `h` conflicts
  /// with the committed tip — a correct replica must never do that.
  void commit_chain(const BlockHash& h);
  virtual void on_commit(const Block& block);

  // -- checkpointing hooks ------------------------------------------------------
  /// Called as the low-water mark advances to `root` (the checkpoint
  /// block), just before the blocks below it leave the store. Protocols
  /// GC their per-block side state (vote tallies, equivocation records)
  /// here — the doomed blocks are still inspectable, so side state for
  /// a block that simply has not arrived yet can be told apart and kept.
  virtual void on_low_water(const Block& root);
  /// Called after a completed state transfer re-rooted the chain at
  /// `root`. Protocols re-anchor their locks / certified tips here.
  virtual void on_state_transfer(const Block& root);
  /// Called on the offline→online edge (crash recovery). Protocols
  /// re-arm their progress/blame timers here: a timeout that fired
  /// while offline was swallowed and never re-scheduled itself.
  virtual void on_restart();
  /// Called after a committed policy block flipped the active signer
  /// set to `policy` (at the commit boundary, after the block's commands
  /// executed). Protocols rebase per-sender state here — e.g. MinBFT
  /// drops AttestationTracker lanes for departed members.
  virtual void on_membership_change(const MembershipPolicy& policy);

  // -- client request/reply path ----------------------------------------------------
  /// Verify and pool a client-submitted kRequest (authors live above the
  /// replica id range, so the normal verify_msg path does not apply).
  void handle_request(const Msg& msg);
  /// Send the signed execution acknowledgment for one committed request
  /// back to its client. Called once per tagged command on commit;
  /// override point for Byzantine reply behaviours in tests.
  virtual void reply_to_client(const ClientRequest& req, const Bytes& result);

  // -- dispatch ---------------------------------------------------------------------
  void on_deliver(NodeId origin, BytesView payload) final;
  /// Protocol logic; called only for messages that passed (or were
  /// excused from) signature verification.
  virtual void handle(NodeId from, const Msg& msg) = 0;
  /// Whether this message's signature must be verified before handling.
  /// Protocols may skip verification for optimistically pre-committed
  /// steady-state proposals (§3.5 "Batching optimization").
  [[nodiscard]] virtual bool requires_signature_check(const Msg& msg) const {
    (void)msg;
    return true;
  }

  // -- event tracing ---------------------------------------------------------------
  // Thin forwarders to cfg_.tracer stamped with sched_.now() and this
  // replica's id; all no-ops when no tracer is attached.
  [[nodiscard]] bool tracing() const { return cfg_.tracer != nullptr; }
  void trace_instant(const char* cat, std::string name,
                     obs::Tracer::Args args = {});
  void trace_begin(const char* cat, std::string name, std::uint64_t id,
                   obs::Tracer::Args args = {});
  void trace_end(const char* cat, std::string name, std::uint64_t id,
                 obs::Tracer::Args args = {});
  /// Trace this replica's vote for `b`, opening the block's per-height
  /// span (commit_chain's async_end closes it).
  void trace_vote(const Block& b);

  // -- profiling -------------------------------------------------------------------
  // cfg_.profiler forwarders; all no-ops without a profiler attached.
  /// Count one crypto op against this replica at `site`.
  void prof_crypto(const char* op, const char* site);
  /// Emit a flow step (with its anchoring slice) for one sampled request.
  void prof_flow(const char* name, NodeId client, std::uint64_t req_id);
  /// Flow steps + frame-share energy attribution for every sampled
  /// request carried by `b`: each sampled command gets `1/|cmds|` of the
  /// `frame_bytes` frame on stream `s` (frame_bytes 0 = flow step only).
  void prof_flow_block(const char* name, const Block& b, energy::Stream s,
                       std::size_t frame_bytes);

  sim::Scheduler& sched_;
  net::FloodRouter router_;
  ReplicaConfig cfg_;
  energy::Meter* meter_;  ///< may be nullptr

  BlockStore store_;
  Mempool mempool_;
  /// Policy-generation history (genesis = initial_members at weight 1).
  MembershipState membership_;

  std::uint64_t v_cur_ = 1;
  std::uint64_t r_cur_ = 3;

 private:
  void handle_sync(NodeId from, const Msg& msg);
  /// Is `id` a signer of the current or a recent (windowed) generation?
  /// Gates vote-class traffic once membership has changed: a departed
  /// member's votes stop counting, modulo certificates still in flight
  /// from just before the flip.
  [[nodiscard]] bool recent_signer(NodeId id) const;
  /// Whether the signer gate is live: after any policy flip, or from
  /// genesis when spares exist (initial_members < n — a spare's votes
  /// must not count before a policy admits it).
  [[nodiscard]] bool membership_enforced() const {
    return membership_.generation() > 0 ||
           membership_.active_count() < cfg_.n;
  }
  /// Latest known generation whose signer set contains every node in
  /// `signer_ids` (falls back to the current generation): the tag for an
  /// aggregate certificate folded from these signers' shares.
  [[nodiscard]] std::uint64_t generation_for_signers(
      const std::vector<NodeId>& signer_ids) const;
  /// Whole-certificate cache digest for an aggregate cert (covers
  /// preimage, signer bitset and aggregate signature).
  static crypto::Sha256Digest agg_cert_digest(
      BytesView preimage, const crypto::SignerBitset& signers,
      BytesView agg_sig);
  /// Aggregate-cert validity shared by verify_qc /
  /// verify_checkpoint_cert: quorum count, known generation, signers all
  /// members of it, then the cached-or-metered aggregate verification
  /// over `preimage`.
  [[nodiscard]] bool verify_agg_cert(BytesView preimage,
                                     const crypto::SignerBitset& signers,
                                     std::uint64_t gen, BytesView agg_sig,
                                     std::size_t quorum_size,
                                     const char* site);
  /// Verify `sig` by `author` over `preimage` through cfg_.memo: a
  /// directory signature, or an aggregate-scheme share when `share`.
  /// Pure of energy accounting — callers charge the modeled verify.
  [[nodiscard]] bool memo_verify(NodeId author, BytesView preimage,
                                 BytesView sig, bool share = false);
  /// memo_verify plus the modeled verify charge (a one-signer aggregate
  /// check for a share) and one prof_crypto("verify", site).
  [[nodiscard]] bool verify_metered(NodeId author, BytesView preimage,
                                    BytesView sig, bool share,
                                    const char* site);
  /// This replica's signature over `preimage`: an aggregate-scheme share
  /// when `share`, else its directory signature. Charges the modeled
  /// sign and counts it at `site` unless `metered` is false.
  [[nodiscard]] Bytes sign_preimage(BytesView preimage, bool share,
                                    const char* site, bool metered = true);
  /// Encode `m` into wire_writer_ and count the bytes against `m`'s
  /// stream (broadcast/send).
  const Bytes& encode_wire(const Msg& m);
  /// Adopt the orphans the store can now connect; each is announced to
  /// on_chain_connected() after the parked retries are re-dispatched.
  void connect_orphans();
  /// Individual-form cert validity shared by verify_qc /
  /// verify_checkpoint_cert. Charges one metered verification per
  /// signature the verified-signature cache does not answer, then checks
  /// the count against `quorum_size`, that every author is a replica
  /// (the keyring also holds client keys) and distinct, and last the
  /// uncached signatures over `preimage`.
  [[nodiscard]] bool verify_individual_cert(
      const Bytes& preimage,
      const std::vector<std::pair<NodeId, Bytes>>& sigs,
      std::size_t quorum_size, const char* site);

  /// One typed channel per stream, opened in the constructor with the
  /// configured (or protocol-default) policy.
  std::array<std::unique_ptr<net::Channel>, energy::kNumStreams> channels_;

  // -- checkpoint & state-transfer I/O ------------------------------------------
  // The checkpoint agent (ckpt_) decides; these functions sign, verify,
  // charge, send and truncate as it says.
  /// Snapshot + sign + flood a checkpoint if one is due at block `b`.
  void maybe_checkpoint(const Block& b);
  void handle_checkpoint(const Msg& msg);
  /// Collector side of the aggregate scheme: fold a freshly assembled
  /// share tally into the O(1) aggregate form and flood kCheckpointCert.
  void broadcast_checkpoint_cert(const checkpoint::CheckpointCert& cert);
  /// An individual-form cert of share signatures folded into the O(1)
  /// aggregate form, tagged with the latest generation containing every
  /// signer. Charges the combine.
  [[nodiscard]] checkpoint::CheckpointCert fold_checkpoint_cert(
      const checkpoint::CheckpointCert& cert);
  void handle_checkpoint_cert(const Msg& msg);
  void handle_state_request(NodeId from, const Msg& msg);
  /// Send the current stable checkpoint snapshot to `from` (once per
  /// stable checkpoint): the state-transfer reply, also used to answer
  /// sync requests for history truncated below the low-water mark.
  void serve_checkpoint(NodeId from);
  void handle_state_response(const Msg& msg);
  /// Act on the agent's low-water step for a replica committed up to
  /// `committed`: truncate below the stable checkpoint, or open (or
  /// retarget) a state transfer to it.
  void settle_low_water(std::uint64_t committed);
  /// Truncate log/store/dedup state below the stable checkpoint.
  void advance_low_water();
  /// Ask the agent's next signer for the snapshot; re-armed by timeout.
  void send_state_request();

  std::vector<Block> log_;
  BlockHashSet committed_;  // retained block hashes
  BlockHash committed_tip_;
  std::uint64_t committed_height_ = 0;
  BlockHashSet sync_requested_;
  /// When the current chain-sync episode began (0 = none outstanding);
  /// the recovery clock for snapshot pushes answering a sync request.
  sim::SimTime sync_started_ = 0;
  StateMachine* app_ = nullptr;
  OutboundPolicy* outbound_ = nullptr;
  bool tolerate_fork_ = false;
  ExecutionLog exec_;
  RequestIntake intake_{cfg_.client_pending_cap};
  /// Verified-signature cache: digests of (author, preimage, signature)
  /// triples this node verified individually — vote-class messages and
  /// checkpoint attestations — mapped to the committed height current
  /// when recorded. Certificate tallies (verify_qc /
  /// verify_checkpoint_cert) consult it per contained signature: a hit
  /// means this exact signature already passed on this node, so the
  /// tally skips the metered re-verification. Unlike RequestIntake's
  /// verified-bytes cache, entries are multi-use (a commitQC and a status
  /// message may both carry the same vote) and GC'd by the same
  /// low-water-mark rule.
  std::map<crypto::Sha256Digest, std::uint64_t> sig_verified_;
  std::uint64_t sig_cache_hits_ = 0;
  /// Reused outbound encoder (broadcast/send): clear() keeps the
  /// allocation across encodes.
  Writer wire_writer_;

  /// Sampled requests per block, keyed by height then digest, so
  /// vote/commit flow hooks do not re-decode every command on every call.
  /// Heights below the low-water mark are dropped with their blocks.
  std::map<std::uint64_t,
           BlockHashMap<std::vector<std::pair<NodeId, std::uint64_t>>>>
      prof_block_cache_;

  /// Messages parked by buffer_future() / retry_on_connect().
  std::vector<Msg> future_;
  std::vector<Msg> retry_;

  checkpoint::CheckpointManager ckpt_;
  /// Re-asks for the snapshot while a state transfer is in flight.
  sim::Timer st_timer_;

  // -- membership & Byzantine-checkpoint state ----------------------------------
  std::uint64_t membership_changes_ = 0;
  bool forge_ckpt_ = false;
  bool withhold_snap_ = false;

  bool online_ = true;
};

}  // namespace eesmr::smr
