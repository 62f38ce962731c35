#include "src/baselines/sync_hotstuff.hpp"

#include <cassert>

#include "src/common/serde.hpp"

namespace eesmr::baselines {

using smr::Block;
using smr::BlockHash;
using smr::Msg;
using smr::MsgType;
using smr::QuorumCert;

SyncHsReplica::SyncHsReplica(net::Network& net, smr::ReplicaConfig cfg,
                             SyncHsOptions opts, smr::ByzantineConfig byz,
                             energy::Meter* meter)
    : BlameViewChangeReplica(net, std::move(cfg), byz, meter,
                             /*commit_wait=*/2, /*restart_wait=*/6),
      opts_(opts) {
  // Protocol default for the vote stream: "partially implementing vote
  // forwarding" (§5.7, in Sync HotStuff's favor) — one transmission to
  // the direct neighborhood, no re-forwarding. With k >= f the k
  // in-neighbors plus the node itself already form an f+1 quorum. An
  // explicit policy in ReplicaConfig::channels overrides this.
  if (config().channels[energy::Stream::kVote].kind ==
      net::DisseminationPolicy::Kind::kDefault) {
    set_channel_policy(energy::Stream::kVote,
                       net::DisseminationPolicy::local_kcast());
  }
  certified_tip_ = smr::genesis_hash();
  QuorumCert g;
  g.type = MsgType::kVote;
  g.data = smr::genesis_hash();
  tip_cert_ = g;
}

void SyncHsReplica::start() {
  if (started_) return;
  started_ = true;
  v_cur_ = 1;
  reset_blame_timer(4 * cfg_.delta);
  if (proposer_for(1) == cfg_.id) propose(1);
}

// ---------------------------------------------------------------------------
// Steady state
// ---------------------------------------------------------------------------

void SyncHsReplica::propose(std::uint64_t height) {
  if (crashed_ || phase_ != Phase::kSteady) return;
  if (byz_.mode == smr::ByzantineMode::kCrash && byz_.trigger != 0 &&
      height >= byz_.trigger) {
    crash_stop();
    return;
  }

  const Block* parent = store_.get(certified_tip_);
  assert(parent != nullptr);
  auto build = [&](const std::string& tag) {
    Block b;
    b.parent = certified_tip_;
    b.height = parent->height + 1;
    b.view = v_cur_;
    b.round = height;
    b.proposer = cfg_.id;
    b.cmds = mempool_.next_batch(cfg_.batch_size);
    if (!tag.empty()) b.cmds.push_back({to_bytes(tag)});
    return b;
  };
  auto send_proposal = [&](const Block& b) {
    (void)hash_block(b);
    Writer w;
    w.bytes(b.encode());
    w.bytes(tip_cert_->encode());
    Msg prop = make_msg(MsgType::kPropose, height, w.take());
    broadcast(prop);
    prof_flow_block("propose", b, energy::Stream::kProposal,
                    prop.wire_size());
    if (tracing()) {
      trace_instant("commit", "propose",
                    {{"round", exp::Json(height)},
                     {"height", exp::Json(b.height)},
                     {"view", exp::Json(v_cur_)}});
    }
    store_.add(b);
    handle_propose(cfg_.id, prop);
  };

  if (byz_.equivocates() && height == byz_.trigger) {
    send_proposal(build("equivocation-A"));
    send_proposal(build("equivocation-B"));
    return;
  }
  send_proposal(build(""));
}

void SyncHsReplica::handle_propose(NodeId from, const Msg& msg) {
  if (!for_current_view(msg)) return;
  if (phase_ != Phase::kSteady) return;
  Block b;
  QuorumCert parent_cert;
  try {
    Reader r(msg.data);
    b = Block::decode(r.bytes());
    parent_cert = QuorumCert::decode(r.bytes());
  } catch (const SerdeError&) {
    return;
  }
  const NodeId leader = proposer_for(msg.round);
  if (msg.author != leader || b.proposer != leader || b.view != v_cur_ ||
      b.round != msg.round) {
    return;
  }
  const BlockHash h = hash_block(b);

  // Equivocation detection: conflicting leader proposals for one height.
  auto [it, inserted] = seen_.try_emplace(b.height, h, msg);
  if (!inserted && it->second.first != h) {
    // Keep the conflicting block: other nodes may have certified it
    // before detecting the equivocation, and the view change's status
    // exchange can legitimately hand us its certificate.
    (void)integrate_block(b, from);
    cancel_commit_timers();
    commits_disabled_ = true;
    send_blame();
    return;
  }

  // The certificate must certify the parent.
  if (parent_cert.data != b.parent || !cert_valid(parent_cert)) return;
  if (!integrate_block(b, from)) {
    retry_on_connect(msg);
    return;
  }
  // Vote for proposals whose certified parent is at least as high as the
  // highest certified block we know (Sync HotStuff's vote rule). The
  // strict earlier form — extends OUR certified tip — loses safety after
  // an equivocation splits the votes: both conflicting blocks can
  // certify on disjoint node subsets, each node locks its own branch,
  // and the next view's leader can then commit alone on a branch the
  // rest abandoned (found by the adversary conformance matrix). Voting
  // re-locks us onto the proposal's certified branch, so every honest
  // node follows the new leader and the 2Δ commit argument closes again.
  if (!store_.extends(h, certified_tip_)) {
    const Block* parent = store_.get(b.parent);
    if (parent == nullptr || parent->height < certified_height_) return;
    certified_tip_ = b.parent;
    certified_height_ = parent->height;
    tip_cert_ = parent_cert;
  }
  // At most one vote per height per view: an equivocation window must
  // not arm 2Δ commits for two conflicting siblings.
  if (!voted_height_.try_emplace(b.height, h).second) return;
  if (votes_.has({b.view, h}, cfg_.id)) return;
  vote_for(b, h);
}

void SyncHsReplica::vote_for(const Block& block, const BlockHash& h) {
  trace_vote(block);  // opens the 2Δ per-height block span
  Msg vote = make_msg(MsgType::kVote, 0, h);
  prof_flow_block("vote", block, energy::Stream::kVote, vote.wire_size());
  // Disseminated per the vote channel's policy (LocalKcast by default;
  // a Flood or RoutedUnicast sweep plugs in via ReplicaConfig::channels).
  broadcast(vote);
  handle_vote(vote);  // count own vote
  reset_blame_timer(4 * cfg_.delta);
  arm_commit_timer(h);  // 2Δ commit wait (the synchronous commit rule)
}

void SyncHsReplica::handle_vote(const Msg& msg) {
  if (!for_current_view(msg)) return;
  const std::size_t votes = votes_.add({msg.view, msg.data}, msg);
  if (votes == quorum()) certify(msg.data);
  if (opts_.optimistic_fast_path && votes == optimistic_quorum() &&
      !commits_disabled_ && store_.contains(msg.data)) {
    // OptSync responsive commit: ⌊3n/4⌋+1 votes commit immediately.
    const auto timer = commit_timers_.find(msg.data);
    if (timer != commit_timers_.end()) {
      sched_.cancel(timer->second);
      commit_timers_.erase(timer);
    }
    commit_chain(msg.data);
  }
}

void SyncHsReplica::certify(const BlockHash& h) {
  const Block* b = store_.get(h);
  if (b == nullptr) return;
  if (b->height <= certified_height_) return;
  // Only votes signed in b's view certify it.
  const smr::VoteKey key{b->view, h};
  if (votes_.count(key) < quorum()) return;
  trace_instant("commit", "certify", {{"height", exp::Json(b->height)}});
  prof_flow_block("certify", *b, energy::Stream::kVote, 0);
  certified_tip_ = h;
  certified_height_ = b->height;
  tip_cert_ = make_cert(votes_.quorum_msgs(key, quorum()));
  if (proposer_for(b->round + 1) == cfg_.id && phase_ == Phase::kSteady &&
      !crashed_) {
    propose(b->round + 1);
  }
}

// ---------------------------------------------------------------------------
// Blame and view change
// ---------------------------------------------------------------------------

void SyncHsReplica::quit_view() {
  // Broadcast the highest certified block (status) and move to the next
  // view after 2Δ — Sync HotStuff's one-round view change.
  Msg status = make_msg(MsgType::kStatus, 0, tip_cert_->encode());
  broadcast(status);
  phase_ = Phase::kQuitView;
  sched_.after(2 * cfg_.delta, "view_change", [this] { enter_new_view(); });
}

void SyncHsReplica::handle_status(const Msg& msg) {
  if (msg.view != v_cur_ && msg.view + 1 != v_cur_) return;
  const std::optional<QuorumCert> qc = QuorumCert::try_decode(msg.data);
  if (!qc || !cert_valid(*qc)) return;
  const std::uint64_t h = store_.height_of(qc->data);
  if (h > certified_height_ && store_.contains(qc->data)) {
    certified_tip_ = qc->data;
    certified_height_ = h;
    tip_cert_ = qc;
  }
}

void SyncHsReplica::reset_view_state() {
  voted_height_.clear();  // one vote per height per VIEW
}

void SyncHsReplica::begin_view() {
  reset_blame_timer(6 * cfg_.delta);
  const bool proposes_next =
      opts_.rotating_leader
          ? proposer_for(certified_height_ + 1) == cfg_.id
          : is_leader();
  if (proposes_next) {
    // Give straggler status messages a moment, then propose from the
    // highest certified block.
    sched_.after(2 * cfg_.delta, "view_change", [this, v = v_cur_] {
      if (v == v_cur_ && !nv_proposed_) leader_propose_new_view();
    });
  }
}

void SyncHsReplica::leader_propose_new_view() {
  if (byz_.mode == smr::ByzantineMode::kCrash && byz_.trigger == 0) {
    // Stalls the new view. Unlike crash_stop(), this leaves the blame
    // timer armed: it still fires, as a no-op scheduler event.
    crashed_ = true;
    router().set_forwarding(false);
    return;
  }
  nv_proposed_ = true;
  const Block* parent = store_.get(certified_tip_);
  if (parent == nullptr) return;
  if (proposer_for(parent->round + 1) == cfg_.id) propose(parent->round + 1);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool SyncHsReplica::cert_valid(const QuorumCert& qc) {
  if (qc.data == smr::genesis_hash() && qc.sigs.empty()) return true;
  if (qc.type != MsgType::kVote) return false;
  return verify_qc(qc, quorum());
}

void SyncHsReplica::on_low_water(const Block& root) {
  // Per-block side state for heights at or below the stable checkpoint
  // is final on f+1 replicas: reclaim the equivocation records and the
  // vote tallies of the about-to-be-truncated blocks. Buckets whose
  // block is NOT in the store are kept — votes routinely arrive before
  // their proposal, and peers never retransmit them, so wiping an
  // in-flight bucket could cost the block its quorum.
  seen_.erase(seen_.begin(), seen_.upper_bound(root.height));
  voted_height_.erase(voted_height_.begin(),
                      voted_height_.upper_bound(root.height));
  votes_.erase_if(settled_at(root.height));
}

void SyncHsReplica::on_state_transfer(const Block& root) {
  certified_tip_ = root.hash();
  certified_height_ = root.height;
  // Placeholder certificate: the checkpoint certificate attests the tip,
  // but it is not a vote QC, so peers reject proposals carrying this
  // stand-in. Harmless — a freshly-recovered replica re-certifies the
  // next block from live votes before it could ever need to propose, and
  // a stalled recovered leader is demoted by the normal blame path.
  QuorumCert q;
  q.type = MsgType::kVote;
  q.view = root.view;
  q.data = certified_tip_;
  tip_cert_ = q;
  votes_.clear();
  voted_height_.clear();
  BlameViewChangeReplica::on_state_transfer(root);
}

void SyncHsReplica::handle(NodeId from, const Msg& msg) {
  if (crashed_) return;
  switch (msg.type) {
    case MsgType::kPropose:
      handle_propose(from, msg);
      break;
    case MsgType::kVote:
      handle_vote(msg);
      break;
    case MsgType::kBlame:
      handle_blame(msg);
      break;
    case MsgType::kBlameQC:
      // A later view's certificate waits for that view; EESMR adopts it.
      if (for_current_view(msg)) handle_blame_qc(msg);
      break;
    case MsgType::kStatus:
      handle_status(msg);
      break;
    default:
      break;
  }
}

}  // namespace eesmr::baselines
