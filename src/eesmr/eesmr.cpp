#include "src/eesmr/eesmr.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/serde.hpp"

namespace eesmr::protocol {

using smr::Block;
using smr::BlockHash;
using smr::Msg;
using smr::MsgType;
using smr::QuorumCert;

namespace {
/// Round gap beyond which try_accept re-anchors on a live proposal
/// instead of buffering (deep-lag catch-up without checkpoints). Kept
/// above any gap ordinary pipelining or within-Δ reordering can produce
/// so the in-order acceptance discipline is untouched in steady state.
constexpr std::uint64_t kFastForwardMinGap = 4;
}  // namespace

EesmrReplica::EesmrReplica(net::Network& net, smr::ReplicaConfig cfg,
                           EesmrOptions opts, smr::ByzantineConfig byz,
                           energy::Meter* meter)
    : BlameViewChangeReplica(net, std::move(cfg), byz, meter,
                             /*commit_wait=*/4, /*restart_wait=*/8),
      opts_(opts) {
  b_lck_ = smr::genesis_hash();
  // Genesis is certified by definition (agreed during setup): empty QC.
  QuorumCert g;
  g.type = MsgType::kCertify;
  g.data = smr::genesis_hash();
  commit_qc_ = g;
}

void EesmrReplica::start() {
  if (started_) return;
  started_ = true;
  v_cur_ = 1;
  enter_steady_round(3);
}

// ---------------------------------------------------------------------------
// Steady state (Algorithm 2, lines 203-215)
// ---------------------------------------------------------------------------

void EesmrReplica::enter_steady_round(std::uint64_t round) {
  phase_ = Phase::kSteady;
  accepted_round_ = round - 1;
  r_cur_ = round;
  reset_blame_timer(4 * cfg_.delta);
  if (is_leader()) propose_block(round);
  drain_buffered();
}

void EesmrReplica::propose_block(std::uint64_t round) {
  if (crashed_ || phase_ != Phase::kSteady) return;
  if (byz_.mode == smr::ByzantineMode::kCrash && byz_.trigger >= 3 &&
      round >= byz_.trigger) {
    crash_stop();
    return;
  }
  if (byz_.equivocates() && round == byz_.trigger) {
    byzantine_equivocate(round);
    return;
  }

  const Block* parent = store_.get(b_lck_);
  assert(parent != nullptr);
  Block b;
  b.parent = b_lck_;
  b.height = parent->height + 1;
  b.view = v_cur_;
  b.round = round;
  b.proposer = cfg_.id;
  b.cmds = mempool_.next_batch(cfg_.batch_size);
  const BlockHash h = hash_block(b);  // CreateProposal hashing cost

  Msg prop = make_msg(MsgType::kPropose, round, b.encode());
  broadcast(prop);
  prof_flow_block("propose", b, energy::Stream::kProposal,
                  prop.wire_size());
  if (tracing()) {
    trace_instant("commit", "propose",
                  {{"round", exp::Json(round)},
                   {"height", exp::Json(b.height)},
                   {"view", exp::Json(v_cur_)}});
  }
  // The leader executes the node part on its own proposal (line 209
  // "Also executed by the leader").
  store_.add(b);
  record_proposal_hash(round, h, prop);
  try_accept(prop, b, h, cfg_.id);
}

void EesmrReplica::handle_propose(NodeId from, const Msg& msg) {
  if (!for_current_view(msg)) return;
  if (msg.round == 1) return;  // bootstrap uses kNewViewProposal
  if (msg.round == 2) {
    handle_round2(from, msg);
    return;
  }

  Block b;
  try {
    b = Block::decode(msg.data);
  } catch (const SerdeError&) {
    return;
  }
  // A valid proposal is signed by the view's leader and internally
  // consistent.
  const NodeId leader = leader_of(v_cur_);
  if (msg.author != leader || b.proposer != leader || b.view != v_cur_ ||
      b.round != msg.round) {
    return;
  }
  const BlockHash h = hash_block(b);
  // Keep every valid leader-signed block (even ones we will not accept):
  // conflict checks against CommitUpdate / commit-QC messages during a
  // view change need the ancestry, and certificates for a block we
  // rejected can legitimately surface from other nodes.
  (void)integrate_block(b, from);
  // Equivocation detection covers *any* round of the view (line 220).
  record_proposal_hash(msg.round, h, msg);
  try_accept(msg, b, h, from);
}

void EesmrReplica::try_accept(const Msg& msg, const Block& b,
                              const BlockHash& h, NodeId origin) {
  if (phase_ == Phase::kBootstrap1 || phase_ == Phase::kBootstrap2) {
    // Steady proposals of the new view can overtake the bootstrap
    // epilogue; keep them for steady-state entry.
    buffer_future(msg);
    return;
  }
  if (phase_ != Phase::kSteady || commits_disabled_) return;
  if (msg.round != accepted_round_ + 1) {
    if (msg.round > accepted_round_ + 1) {
      // Round fast-forward: a deeply-lagged replica (crash/recover
      // without checkpoints) would otherwise buffer the live rounds
      // forever — the gap in front of it only grows. When the gap is
      // past what pipelining/reordering can produce and the proposal's
      // full ancestry is integrated AND extends our lock, re-anchor on
      // it directly; the skipped blocks commit transitively with it.
      // (A too-small gap, or a missing ancestry, falls back to the
      // buffer/chain-sync path: in-order delivery stays untouched.)
      if (msg.round > accepted_round_ + 1 + kFastForwardMinGap &&
          commit_timers_.size() < opts_.pipeline) {
        if (!integrate_block(b, origin)) {
          retry_on_connect(msg);  // chain sync fetches the gap
          return;
        }
        if (store_.extends(h, b_lck_)) {
          accept_proposal(b, h);
          return;
        }
      }
      buffer_future(msg);
    }
    return;  // old round: the equivocation check already ran
  }
  // Blocking variant: at most `pipeline` un-committed accepted proposals
  // at a time (§5.6 footnote 11).
  if (commit_timers_.size() >= opts_.pipeline) {
    buffer_future(msg);
    return;
  }
  if (!integrate_block(b, origin)) {
    retry_on_connect(msg);  // chain sync in flight; retried on connect
    return;
  }
  // LockCompare (line 121): in the steady state only a block extending
  // the current lock may take the lock.
  if (!store_.extends(h, b_lck_)) return;
  accept_proposal(b, h);
}

void EesmrReplica::accept_proposal(const Block& block, const BlockHash& h) {
  if (tracing()) {
    // Opens the per-height block span; commit_chain's async_end closes
    // it. Accepting IS the "vote in the head" — no explicit vote leaves.
    trace_begin("block", "block", block.height,
                {{"round", exp::Json(block.round)},
                 {"view", exp::Json(block.view)}});
  }
  b_lck_ = h;
  accepted_round_ = block.round;
  r_cur_ = block.round + 1;
  // Accepting IS the vote in EESMR: a flow step with no frame to bill.
  // Named "vote" so the client-side terminal "accept" stays unique.
  prof_flow_block("vote", block, energy::Stream::kVote, 0);
  arm_commit_timer(h);  // line 214 ("vote in the head")
  if (opts_.pipeline == 1) {
    // Blocking variant: the round lasts until the commit timer fires; no
    // proposal is expected before then, so the blame timer pauses here
    // and is re-armed at round entry (commit_timeout).
    blame_timer_.cancel();
  } else {
    reset_blame_timer(6 * cfg_.delta);
  }
  if (is_leader() && !crashed_ && commit_timers_.size() < opts_.pipeline) {
    propose_block(accepted_round_ + 1);
  }
  drain_buffered();
}

// ---------------------------------------------------------------------------
// Commit rule (lines 278-280)
// ---------------------------------------------------------------------------

void EesmrReplica::after_commit_timeout() {
  if (phase_ != Phase::kSteady) return;
  // Entering the wait for the next round: arm the 4Δ no-progress timer
  // (Lemma B.1 bounds the next proposal's arrival by 4Δ from here).
  if (opts_.pipeline == 1) reset_blame_timer(4 * cfg_.delta);
  if (is_leader() && !crashed_ && commit_timers_.size() < opts_.pipeline) {
    propose_block(accepted_round_ + 1);
  }
  drain_buffered();
}

// ---------------------------------------------------------------------------
// Blame and equivocation (lines 216-234)
// ---------------------------------------------------------------------------

void EesmrReplica::on_blame_timer() {
  if (!online()) return;
  send_blame();
  // One blame per view: re-arm and wait for the quorum.
  reset_blame_timer(8 * cfg_.delta);
}

obs::Tracer::Args EesmrReplica::blame_trace_args() const {
  return {{"view", exp::Json(v_cur_)}, {"target", exp::Json(v_cur_)}};
}

void EesmrReplica::record_proposal_hash(std::uint64_t round,
                                        const BlockHash& h, const Msg& msg) {
  auto [it, inserted] = seen_.try_emplace(round, h, msg);
  if (inserted || it->second.first == h) return;
  // Equivocation: two leader-signed proposals for the same round.
  ++equivocations_detected_;
  trace_instant("fault", "equivocation_detected",
                {{"round", exp::Json(round)}, {"view", exp::Json(v_cur_)}});
  Writer w;
  w.bytes(it->second.second.encode());
  w.bytes(msg.encode());
  Msg proof = make_msg(MsgType::kEquivProof, round, w.take());
  broadcast(proof);
  handle_equiv_proof(proof);  // apply locally too
}

void EesmrReplica::handle_equiv_proof(const Msg& msg) {
  if (msg.view != v_cur_ || !can_start_view_change()) return;
  Msg pr1, pr2;
  try {
    Reader r(msg.data);
    pr1 = Msg::decode(r.bytes());
    pr2 = Msg::decode(r.bytes());
  } catch (const SerdeError&) {
    return;
  }
  const NodeId leader = leader_of(v_cur_);
  if (pr1.author != leader || pr2.author != leader) return;
  const bool proposal_pair =
      (pr1.type == MsgType::kPropose && pr2.type == MsgType::kPropose) ||
      (pr1.type == MsgType::kNewViewProposal &&
       pr2.type == MsgType::kNewViewProposal);
  if (!proposal_pair) return;
  if (pr1.view != v_cur_ || pr2.view != v_cur_ || pr1.round != pr2.round) {
    return;
  }
  if (pr1.data == pr2.data) return;
  // Both proposals must genuinely carry the leader's signature — that is
  // what makes the proof transferable.
  if (!verify_msg(pr1) || !verify_msg(pr2)) return;

  // Line 225: cancel all commit timers to preserve safety.
  cancel_commit_timers();
  commits_disabled_ = true;
  if (opts_.equivocation_fast_path) {
    // §3.5: the proof itself convinces everyone; skip the blame QC.
    on_blame_quorum();
    return;
  }
  // Not send_blame(): this blame is not traced.
  if (!blames_.has(v_cur_, cfg_.id)) {
    Msg blame = make_msg(MsgType::kBlame, 0, {});
    broadcast(blame);
    handle_blame(blame);
  }
}

// ---------------------------------------------------------------------------
// Quit view (lines 235-250)
// ---------------------------------------------------------------------------

void EesmrReplica::quit_view() {
  phase_ = Phase::kQuitView;
  certify_msgs_.clear();
  // Broadcast our highest committed block and collect certificates for it
  // — turning the "votes in the head" into explicit votes.
  Msg update = make_msg(MsgType::kCommitUpdate, 0, committed_tip());
  broadcast(update);
  // Certify our own B_com.
  Msg self_certify = make_msg(MsgType::kCertify, 0, committed_tip());
  certify_msgs_.add(v_cur_, self_certify);
  sched_.after(5 * cfg_.delta, "view_change", [this] { finish_quit_view(); });
}

void EesmrReplica::handle_commit_update(NodeId from, const Msg& msg) {
  if (!for_current_view(msg)) return;
  const BlockHash& b = msg.data;
  // Line 243: vote unless it conflicts with our lock (or our own B_com).
  // Replying from any phase is safe — the certificate only attests that
  // `b` lies on our locked chain right now.
  if (!store_.contains(b)) return;  // unknown ancestry: cannot vouch
  if (store_.conflicts(b, b_lck_)) return;
  if (store_.conflicts(b, committed_tip())) return;
  Msg certify = make_msg(MsgType::kCertify, 0, b);
  send(from, certify);
}

void EesmrReplica::handle_certify(const Msg& msg) {
  if (msg.view != v_cur_ || phase_ != Phase::kQuitView) return;
  if (msg.data != committed_tip()) return;  // only certs for our B_com
  if (certify_msgs_.add(msg.view, msg) != quorum()) return;
  trace_instant("commit", "certify",
                {{"view", exp::Json(v_cur_)},
                 {"height", exp::Json(commit_qc_height_)}});
  const QuorumCert qc =
      make_cert(certify_msgs_.quorum_msgs(msg.view, quorum()));
  const std::uint64_t h = store_.height_of(qc.data);
  if (h >= commit_qc_height_) {
    commit_qc_ = qc;
    commit_qc_height_ = h;
  }
}

void EesmrReplica::handle_commit_qc(const Msg& msg) {
  if (!for_current_view(msg)) return;
  if (phase_ != Phase::kQuitView && phase_ != Phase::kQcExchange) return;
  const std::optional<QuorumCert> qc = QuorumCert::try_decode(msg.data);
  if (!qc || !is_commit_qc_valid(*qc)) return;
  // Lines 248-250: adopt longer certificates that do not conflict with
  // our lock.
  const std::uint64_t height = store_.height_of(qc->data);
  if (height <= commit_qc_height_) return;
  if (!store_.contains(qc->data)) return;
  if (store_.conflicts(qc->data, b_lck_)) return;
  commit_qc_ = qc;
  commit_qc_height_ = height;
}

void EesmrReplica::finish_quit_view() {
  if (phase_ != Phase::kQuitView) return;
  phase_ = Phase::kQcExchange;
  // Line 240: broadcast the (possibly adopted) commit QC, wait Δ.
  Msg qc_msg = make_msg(MsgType::kCommitQC, 0, commit_qc_->encode());
  broadcast(qc_msg);
  sched_.after(cfg_.delta, "view_change", [this] { enter_new_view(); });
}

// ---------------------------------------------------------------------------
// New view (lines 251-277)
// ---------------------------------------------------------------------------

void EesmrReplica::reset_view_state() {
  certify_msgs_.clear();
  status_.clear();
  nv_block_.reset();
  nv_votes_.clear();
}

void EesmrReplica::begin_view() {
  r_cur_ = 1;
  phase_ = Phase::kBootstrap1;
  const NodeId leader = leader_of(v_cur_);
  if (leader == cfg_.id) {
    status_.emplace(cfg_.id, *commit_qc_);
    // Line 256: wait up to 4Δ to hear commit QCs from f+1 nodes.
    sched_.after(4 * cfg_.delta, "view_change", [this, v = v_cur_] {
      if (v == v_cur_ && phase_ == Phase::kBootstrap1 && !nv_proposed_ &&
          status_.size() >= quorum()) {
        leader_propose_new_view();
      }
    });
  } else {
    // Line 265: send our commit QC to the new leader.
    Msg status = make_msg(MsgType::kStatus, 0, commit_qc_->encode());
    send(leader, status);
  }
  reset_blame_timer(8 * cfg_.delta);  // line 266
}

void EesmrReplica::handle_status(const Msg& msg) {
  // A later view's status is kept for our own view entry: we are still
  // completing the previous view's epilogue, and the sender moved on.
  if (!for_current_view(msg) || leader_of(v_cur_) != cfg_.id) return;
  if (phase_ != Phase::kBootstrap1 || nv_proposed_) return;
  const std::optional<QuorumCert> qc = QuorumCert::try_decode(msg.data);
  if (!qc || !is_commit_qc_valid(*qc)) return;
  status_.emplace(msg.author, *qc);
  // Propose early once all correct nodes could have reported.
  if (status_.size() >= cfg_.n - cfg_.f && status_.size() >= quorum()) {
    leader_propose_new_view();
  }
}

void EesmrReplica::leader_propose_new_view() {
  if (byz_.mode == smr::ByzantineMode::kCrash && byz_.trigger <= 2) {
    // A Byzantine new leader that stalls the bootstrap.
    crash_stop();
    return;
  }
  nv_proposed_ = true;
  // Pick f+1 status certificates headed by the highest.
  std::vector<std::pair<NodeId, QuorumCert>> chosen(status_.begin(),
                                                    status_.end());
  std::sort(chosen.begin(), chosen.end(),
            [this](const auto& a, const auto& b) {
              return store_.height_of(a.second.data) >
                     store_.height_of(b.second.data);
            });
  chosen.resize(std::min(chosen.size(), quorum()));
  const QuorumCert& highest = chosen.front().second;
  const Block* parent = store_.get(highest.data);
  if (parent == nullptr) return;  // cannot happen for a correct leader

  Block b1;
  b1.parent = highest.data;
  b1.height = parent->height + 1;
  b1.view = v_cur_;
  b1.round = 1;
  b1.proposer = cfg_.id;
  if (opts_.cmds_in_bootstrap) {
    b1.cmds = mempool_.next_batch(cfg_.batch_size);
  }
  (void)hash_block(b1);

  Writer w;
  w.bytes(b1.encode());
  w.u32(static_cast<std::uint32_t>(chosen.size()));
  for (const auto& [node, qc] : chosen) w.bytes(qc.encode());
  Msg prop = make_msg(MsgType::kNewViewProposal, 1, w.take());
  broadcast(prop);
  // The leader runs the node part on its own proposal.
  handle_new_view_proposal(cfg_.id, prop);
}

void EesmrReplica::handle_new_view_proposal(NodeId from, const Msg& msg) {
  if (!for_current_view(msg)) return;
  if (msg.author != leader_of(v_cur_)) return;
  if (phase_ != Phase::kBootstrap1 || r_cur_ != 1) {
    // Still completing the previous view's epilogue: keep for later.
    if (phase_ == Phase::kQuitView || phase_ == Phase::kQcExchange) {
      buffer_future(msg);
    }
    return;
  }

  Block b1;
  std::vector<QuorumCert> status;
  try {
    Reader r(msg.data);
    b1 = Block::decode(r.bytes());
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      status.push_back(QuorumCert::decode(r.bytes()));
    }
  } catch (const SerdeError&) {
    return;
  }
  if (b1.view != v_cur_ || b1.round != 1 ||
      b1.proposer != leader_of(v_cur_)) {
    return;
  }
  if (status.size() < quorum()) return;
  std::uint64_t highest = 0;
  const QuorumCert* highest_qc = nullptr;
  for (const QuorumCert& qc : status) {
    if (!is_commit_qc_valid(qc)) return;
    const std::uint64_t h = store_.height_of(qc.data);
    if (highest_qc == nullptr || h > highest) {
      highest = h;
      highest_qc = &qc;
    }
  }
  // Line 269: the proposal must extend the highest certified block.
  if (highest_qc == nullptr || b1.parent != highest_qc->data) return;

  const BlockHash h1 = hash_block(b1);
  record_proposal_hash(1, h1, msg);
  if (phase_ != Phase::kBootstrap1) return;  // an equivocation proof fired
  if (!integrate_block(b1, from)) {
    retry_on_connect(msg);
    return;
  }

  // The view change may safely replace a lock that never committed
  // (LockCompare's "unless it is safe to do so").
  b_lck_ = h1;
  nv_block_ = b1;

  Msg vote = make_msg(MsgType::kVoteMsg, 1, h1);
  broadcast(vote);
  trace_instant("commit", "vote",
                {{"view", exp::Json(v_cur_)},
                 {"height", exp::Json(b1.height)}});
  reset_blame_timer(6 * cfg_.delta);  // line 273
  phase_ = Phase::kBootstrap2;
  r_cur_ = 2;
  if (leader_of(v_cur_) == cfg_.id) handle_vote(vote);
  drain_buffered();
}

void EesmrReplica::handle_vote(const Msg& msg) {
  if (msg.view != v_cur_ || leader_of(v_cur_) != cfg_.id) return;
  if (!nv_block_ || msg.data != nv_block_->hash()) return;
  if (nv_votes_.add(msg.view, msg) != quorum()) return;  // round 2, once
  const QuorumCert qc = make_cert(nv_votes_.quorum_msgs(msg.view, quorum()));
  Msg prop = make_msg(MsgType::kPropose, 2, qc.encode());
  broadcast(prop);
  handle_round2(cfg_.id, prop);
}

void EesmrReplica::handle_round2(NodeId /*from*/, const Msg& msg) {
  if (!for_current_view(msg)) return;
  if (phase_ != Phase::kBootstrap2 || r_cur_ != 2) {
    if (phase_ == Phase::kBootstrap1 || phase_ == Phase::kQuitView ||
        phase_ == Phase::kQcExchange) {
      buffer_future(msg);
    }
    return;
  }
  if (msg.author != leader_of(v_cur_)) return;
  if (!nv_block_.has_value()) return;
  const std::optional<QuorumCert> qc = QuorumCert::try_decode(msg.data);
  if (!qc || qc->type != MsgType::kVoteMsg || qc->view != v_cur_) return;
  if (qc->data != nv_block_->hash()) return;
  if (!verify_qc(*qc, quorum())) return;
  // Line 277: go to steady state.
  enter_steady_round(3);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool EesmrReplica::is_commit_qc_valid(const QuorumCert& qc) {
  if (qc.data == smr::genesis_hash() && qc.sigs.empty()) return true;
  if (qc.type != MsgType::kCertify) return false;
  if (qc.view > v_cur_) return false;
  return verify_qc(qc, quorum());
}

void EesmrReplica::on_low_water(const Block& root) {
  // Rounds at or below the checkpointed block are final on f+1 replicas:
  // an equivocation proof for them can no longer matter, so the per-round
  // proposal records can be reclaimed (seen_ is per-view and would
  // otherwise grow for the lifetime of a long stable view).
  seen_.erase(seen_.begin(), seen_.upper_bound(root.round));
}

void EesmrReplica::on_state_transfer(const Block& root) {
  // Re-anchor the protocol on the checkpoint block: it carries the
  // (view, round) it was proposed in, so the recovered replica rejoins
  // the steady state right behind the cluster's frontier.
  b_lck_ = root.hash();
  accepted_round_ = std::max(accepted_round_, root.round);
  r_cur_ = accepted_round_ + 1;
  // The old commit certificate references a truncated block; the next
  // view change rebuilds one from CommitUpdate/Certify exchanges.
  commit_qc_height_ = 0;
  BlameViewChangeReplica::on_state_transfer(root);
}

bool EesmrReplica::requires_signature_check(const Msg& msg) const {
  if (opts_.checkpoint_interval == 0) return true;
  if (msg.type != MsgType::kPropose || msg.round < 3) return true;
  // Optimistic pre-commit window: verify only checkpoint rounds.
  return msg.round % opts_.checkpoint_interval == 0;
}

void EesmrReplica::byzantine_equivocate(std::uint64_t round) {
  const Block* parent = store_.get(b_lck_);
  Block a, b;
  for (Block* blk : {&a, &b}) {
    blk->parent = b_lck_;
    blk->height = parent->height + 1;
    blk->view = v_cur_;
    blk->round = round;
    blk->proposer = cfg_.id;
  }
  a.cmds = {smr::Command{to_bytes(std::string("equivocation-A"))}};
  b.cmds = {smr::Command{to_bytes(std::string("equivocation-B"))}};
  Msg ma = make_msg(MsgType::kPropose, round, a.encode());
  Msg mb = make_msg(MsgType::kPropose, round, b.encode());
  if (byz_.mode == smr::ByzantineMode::kEquivocate) {
    broadcast(ma);
    broadcast(mb);
    return;
  }
  // Selective: one conflicting proposal leaves on the first out-edge
  // only; the other floods normally. Honest re-broadcast guarantees both
  // reach every correct node, so the conflict always surfaces.
  router().broadcast_on_edges({0}, ma.encode(), energy::Stream::kProposal);
  broadcast(mb);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void EesmrReplica::handle(NodeId from, const Msg& msg) {
  if (crashed_) return;
  switch (msg.type) {
    case MsgType::kPropose:
      handle_propose(from, msg);
      break;
    case MsgType::kBlame:
      if (for_current_view(msg)) handle_blame(msg);
      break;
    case MsgType::kEquivProof:
      handle_equiv_proof(msg);
      break;
    case MsgType::kBlameQC:
      handle_blame_qc(msg);
      break;
    case MsgType::kCommitUpdate:
      handle_commit_update(from, msg);
      break;
    case MsgType::kCertify:
      handle_certify(msg);
      break;
    case MsgType::kCommitQC:
      handle_commit_qc(msg);
      break;
    case MsgType::kStatus:
      handle_status(msg);
      break;
    case MsgType::kNewViewProposal:
      handle_new_view_proposal(from, msg);
      break;
    case MsgType::kVoteMsg:
      handle_vote(msg);
      break;
    default:
      break;
  }
}

}  // namespace eesmr::protocol
