#include "src/baselines/minbft.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/serde.hpp"

namespace eesmr::baselines {

using smr::Block;
using smr::BlockHash;
using smr::Msg;
using smr::MsgType;
using trusted::Attestation;
using trusted::AttestationTracker;

namespace {
/// Counter gap beyond which a receiver stops holding back and re-baselines
/// (deep lag after a crash; see AttestationTracker::set_max_gap).
constexpr std::uint64_t kMaxCounterGap = 64;
/// Accepted-value digest memory per sender (replay-vs-reuse dedup window).
constexpr std::uint64_t kDigestWindow = 512;
/// Held-back attested messages across all senders (adversarial reordering
/// must not grow memory without bound).
constexpr std::size_t kMaxHoldback = 1024;
}  // namespace

MinBftReplica::MinBftReplica(net::Network& net, smr::ReplicaConfig cfg,
                             smr::ByzantineConfig byz, energy::Meter* meter)
    : ReplicaBase(net, std::move(cfg), meter),
      byz_(byz),
      counter_(cfg_.keyring, cfg_.id, meter, cfg_.profiler),
      progress_timer_(sched_),
      gap_timer_(sched_) {
  tracker_.set_max_gap(kMaxCounterGap);
  accepted_tip_ = smr::genesis_hash();
}

bool MinBftReplica::requires_signature_check(const Msg& msg) const {
  // kPropose / kCommit authenticate via the embedded attestation — the
  // UI *replaces* the protocol signature (MinBFT's core saving).
  return msg.type != MsgType::kPropose && msg.type != MsgType::kCommit;
}

void MinBftReplica::start() {
  if (started_) return;
  started_ = true;
  v_cur_ = 1;
  vc_target_ = 1;
  phase_ = Phase::kSteady;
  reset_progress_timer(10 * cfg_.delta);
  if (is_leader()) propose();
}

// ---------------------------------------------------------------------------
// Steady state: attested prepare (kPropose) -> attested commits
// ---------------------------------------------------------------------------

void MinBftReplica::propose() {
  if (crashed_ || phase_ != Phase::kSteady || !online() || !is_leader()) {
    return;
  }
  const BlockHash parent_hash =
      (accepted_height_ > committed_height() &&
       store_.extends(accepted_tip_, committed_tip()))
          ? accepted_tip_
          : committed_tip();
  const Block* parent = store_.get(parent_hash);
  if (parent == nullptr) return;
  const std::uint64_t height = parent->height + 1;
  if (byz_.mode == smr::ByzantineMode::kCrash && byz_.trigger != 0 &&
      height >= byz_.trigger) {
    crashed_ = true;
    progress_timer_.cancel();
    router().set_forwarding(false);
    return;
  }

  auto build = [&](const std::string& tag) {
    Block b;
    b.parent = parent_hash;
    b.height = height;
    b.view = v_cur_;
    b.round = height;
    b.proposer = cfg_.id;
    b.cmds = mempool_.next_batch(cfg_.batch_size);
    if (!tag.empty()) b.cmds.push_back({to_bytes(tag)});
    return b;
  };
  auto send_proposal = [&](const Block& b) {
    const BlockHash h = hash_block(b);
    const Attestation att = counter_.attest(h);
    Writer w;
    w.bytes(b.encode());
    w.bytes(att.encode());
    const Msg prop = unsigned_msg(MsgType::kPropose, b.height, w.take());
    broadcast(prop);
    prof_flow_block("propose", b, energy::Stream::kProposal,
                    prop.encode().size());
    if (tracing()) {
      trace_instant("commit", "propose",
                    {{"height", exp::Json(b.height)},
                     {"view", exp::Json(v_cur_)},
                     {"counter", exp::Json(att.counter)}});
    }
    store_.add(b);
    handle_propose(cfg_.id, prop);
  };

  if (byz_.equivocates() && height == byz_.trigger) {
    // Counter reuse is structurally impossible: the two conflicting
    // blocks necessarily occupy successive counter values, so every
    // correct receiver sees them in the same order and rejects the
    // second on content.
    send_proposal(build("equivocation-A"));
    send_proposal(build("equivocation-B"));
    return;
  }
  send_proposal(build(""));
}

bool MinBftReplica::admit_attested(NodeId from, const Msg& msg,
                                   const Attestation& att) {
  switch (tracker_.observe(att)) {
    case AttestationTracker::Verdict::kAccept:
      // Draining is the CALLER's job, after it processed this message's
      // content: the held-back successor at counter+1 must not have its
      // content handled before this message's, or equivocation at
      // successive counters forks receivers on arrival order.
      return true;
    case AttestationTracker::Verdict::kReplay:
      // Same value, same digest: a redelivery (or a retry after chain
      // sync). Content handling below is idempotent, so process it.
      return true;
    case AttestationTracker::Verdict::kReuse:
      // Counter-reuse attempt: caught, never processed. The proof (two
      // digests under one value) would convict the sender in a real
      // deployment; here the conformance matrix asserts no fork forms.
      return false;
    case AttestationTracker::Verdict::kHold: {
      if (holdback_total_ >= kMaxHoldback) return false;
      auto& q = holdback_[att.node];
      if (q.emplace(att.counter, msg).second) ++holdback_total_;
      (void)from;
      arm_gap_timer();
      return false;
    }
  }
  return false;
}

void MinBftReplica::drain_holdback(NodeId /*node*/) {
  // handle() below can re-enter this function (a drained message's
  // acceptance advances another sender's frontier): the reentrancy guard
  // plus the restart-after-each-message scan keep the iteration safe
  // against the map mutations those nested calls make.
  if (draining_holdback_) return;
  draining_holdback_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = holdback_.begin(); it != holdback_.end(); ++it) {
      const auto next = it->second.begin();
      if (next == it->second.end() ||
          next->first != tracker_.last(it->first) + 1) {
        continue;
      }
      const NodeId from = it->first;
      const Msg msg = next->second;
      it->second.erase(next);
      --holdback_total_;
      if (it->second.empty()) holdback_.erase(it);
      handle(from, msg);
      progress = true;
      break;  // iterators may be stale after handle(): rescan
    }
  }
  draining_holdback_ = false;
}

void MinBftReplica::handle_propose(NodeId from, const Msg& msg) {
  Block b;
  Attestation att;
  try {
    Reader r(msg.data);
    b = Block::decode(r.bytes());
    att = Attestation::decode(r.bytes());
  } catch (const SerdeError&) {
    return;
  }
  // Validate against the view the MESSAGE claims, not v_cur_: the UI
  // stream must be consumed in counter order even when the content is
  // stale, otherwise a dropped old-view proposal leaves a permanent hole
  // in the sender's counter sequence and parks every later message from
  // it in the hold-back queue. View/phase gating happens after admission.
  if (att.node != leader_of(b.view) || b.proposer != att.node ||
      msg.view != b.view) {
    return;
  }
  const BlockHash h = hash_block(b);
  if (att.digest != h) return;  // UI must bind exactly this block
  if (!trusted::verify_attestation(*cfg_.keyring, att, meter_,
                                   cfg_.profiler, "proposal")) {
    return;
  }
  if (!admit_attested(from, msg, att)) return;
  // Process this proposal's content BEFORE draining the hold-back queue:
  // the held successor at counter+1 may be the second half of an
  // equivocation pair, and handling it first would invert the counter
  // order at the content layer (receivers would fork on arrival order).
  if (msg.view == v_cur_ && phase_ == Phase::kSteady) {
    accept_proposal(from, msg, b, att);
  } else if (msg.view > v_cur_) {
    buffer_future(msg);
  }
  drain_holdback(att.node);
}

void MinBftReplica::accept_proposal(NodeId from, const Msg& msg,
                                    const Block& b, const Attestation& att) {
  const BlockHash h = b.hash();
  // Content equivocation at successive counters: every correct replica
  // processes proposals in counter order (admission + caller-side
  // holdback drain), so all accept the first block for this height and
  // demote the primary on the second.
  auto [it, inserted] = seen_.try_emplace(b.height, h);
  if (!inserted && it->second != h) {
    (void)integrate_block(b, from);
    send_view_change(v_cur_ + 1);
    return;
  }
  if (!integrate_block(b, from)) {
    retry_on_connect(msg);
    return;
  }
  if (!store_.extends(h, committed_tip())) return;
  if (b.height > accepted_height_) {
    accepted_tip_ = h;
    accepted_height_ = b.height;
  }
  // The primary's attested prepare counts as its commit.
  tally_commit(att.node, h);
  if (att.node == cfg_.id) return;  // the primary does not send kCommit
  if (!commit_sent_.insert(h).second) return;
  if (tracing()) {
    trace_begin("block", "block", b.height,
                {{"round", exp::Json(b.round)}, {"view", exp::Json(b.view)}});
    trace_instant("commit", "vote", {{"height", exp::Json(b.height)}});
  }
  const Attestation own = counter_.attest(h);
  Writer w;
  w.bytes(h);
  w.bytes(own.encode());
  const Msg commit = unsigned_msg(MsgType::kCommit, b.height, w.take());
  prof_flow_block("vote", b, energy::Stream::kVote, commit.encode().size());
  broadcast(commit);
  tally_commit(cfg_.id, h);
}

void MinBftReplica::handle_commit_msg(NodeId from, const Msg& msg) {
  BlockHash h;
  Attestation att;
  try {
    Reader r(msg.data);
    h = r.bytes();
    att = Attestation::decode(r.bytes());
  } catch (const SerdeError&) {
    return;
  }
  if (att.digest != h || att.node >= cfg_.n) return;
  if (!trusted::verify_attestation(*cfg_.keyring, att, meter_,
                                   cfg_.profiler, "vote")) {
    return;
  }
  if (!admit_attested(from, msg, att)) return;
  // Tally regardless of msg.view: the commit is an attested acceptance
  // of block h, and the f+1 quorum is per block hash — acceptances that
  // crossed a view change still count (and must, for liveness under
  // leader churn).
  tally_commit(att.node, h);
  drain_holdback(att.node);
}

void MinBftReplica::tally_commit(NodeId author, const BlockHash& h) {
  auto& authors = commit_authors_[h];
  if (!authors.insert(author).second) return;
  if (authors.size() >= quorum()) try_commit(h);
}

void MinBftReplica::try_commit(const BlockHash& h) {
  if (!store_.contains(h) || !store_.extends(h, committed_tip())) {
    pending_commit_.insert(h);
    return;
  }
  const Block* b = store_.get(h);
  if (b != nullptr) {
    trace_instant("commit", "certify", {{"height", exp::Json(b->height)}});
    prof_flow_block("certify", *b, energy::Stream::kVote, 0);
  }
  commit_chain(h);
  reset_progress_timer(10 * cfg_.delta);
}

void MinBftReplica::on_commit(const Block& block) {
  (void)block;
  if (!crashed_ && phase_ == Phase::kSteady && is_leader()) {
    sched_.after(0, "minbft_propose", [this, v = v_cur_] {
      if (v == v_cur_ && phase_ == Phase::kSteady) propose();
    });
  }
}

// ---------------------------------------------------------------------------
// View change (timeout-driven; ReqViewChange with f+1 quorum)
// ---------------------------------------------------------------------------

void MinBftReplica::reset_progress_timer(sim::Duration d) {
  if (crashed_) return;
  progress_timer_.start(d, "minbft_progress_timer",
                        [this] { on_progress_timeout(); });
}

void MinBftReplica::on_progress_timeout() {
  if (crashed_ || !online()) return;
  send_view_change(std::max(vc_target_ + 1, v_cur_ + 1));
}

void MinBftReplica::on_restart() {
  if (crashed_ || !started_) return;
  reset_progress_timer(10 * cfg_.delta);
  arm_gap_timer();
}

// Counters minted while this replica was offline are gone for good —
// attested messages are never retransmitted — so a hold-back gap that
// outlives the delay bound will never fill on its own. After 4Δ of no
// progress, abandon the gap: rebaseline the tracker to the lowest held
// counter and drain. Safe because skipped values become permanently
// unacceptable (AttestationTracker::skip_to), and block/chain recovery
// for the skipped content rides chain sync / state transfer, which carry
// their own certificates.
void MinBftReplica::arm_gap_timer() {
  if (crashed_ || gap_pending_ || holdback_.empty()) return;
  gap_pending_ = true;
  gap_timer_.start(4 * cfg_.delta, "minbft_gap_timer",
                   [this] { on_gap_timeout(); });
}

void MinBftReplica::on_gap_timeout() {
  gap_pending_ = false;
  if (crashed_) return;
  if (!online()) {
    arm_gap_timer();
    return;
  }
  std::vector<NodeId> gapped;
  for (const auto& [node, q] : holdback_) {
    if (!q.empty() && q.begin()->first > tracker_.last(node) + 1) {
      gapped.push_back(node);
    }
  }
  for (const NodeId node : gapped) {
    const auto it = holdback_.find(node);
    if (it == holdback_.end() || it->second.empty()) continue;
    const std::uint64_t head = it->second.begin()->first;
    if (head <= tracker_.last(node) + 1) continue;
    trace_instant("recovery", "counter_gap_skip",
                  {{"sender", exp::Json(node)},
                   {"from", exp::Json(tracker_.last(node))},
                   {"to", exp::Json(head)}});
    tracker_.skip_to(node, head);
    drain_holdback(node);
  }
  arm_gap_timer();
}

void MinBftReplica::send_view_change(std::uint64_t target) {
  if (crashed_ || target <= v_cur_) return;
  phase_ = Phase::kViewChange;
  vc_target_ = std::max(vc_target_, target);
  trace_instant("view", "blame", {{"view", exp::Json(v_cur_)},
                                  {"target", exp::Json(vc_target_)}});
  // Report the latest accepted block so the new primary re-proposes the
  // highest branch any correct replica accepted.
  Writer w;
  const Block* tip = store_.get(accepted_tip_);
  w.boolean(tip != nullptr);
  if (tip != nullptr) w.bytes(tip->encode());
  const Msg vc = make_msg(MsgType::kViewChange, vc_target_, 0, w.take());
  broadcast(vc);
  handle_view_change(vc);
  reset_progress_timer(10 * cfg_.delta);
}

void MinBftReplica::handle_view_change(const Msg& msg) {
  if (msg.view <= v_cur_) return;
  auto& bucket = vc_msgs_[msg.view];
  if (!bucket.emplace(msg.author, msg).second) return;
  // One correct replica is among any f+1 requesters: join them.
  if (bucket.size() >= cfg_.f + 1 && msg.view > vc_target_) {
    send_view_change(msg.view);
  }
  if (bucket.size() >= quorum()) maybe_announce_new_view(msg.view);
}

void MinBftReplica::maybe_announce_new_view(std::uint64_t target) {
  if (leader_of(target) != cfg_.id || crashed_ || !online()) return;
  if (target <= v_cur_ || !nv_sent_.insert(target).second) return;
  Block chosen;
  bool have_chosen = false;
  for (const auto& [author, vc] : vc_msgs_[target]) {
    (void)author;
    try {
      Reader r(vc.data);
      if (!r.boolean()) continue;
      const Block b = Block::decode(r.bytes());
      if (!have_chosen || b.height > chosen.height) {
        chosen = b;
        have_chosen = true;
      }
    } catch (const SerdeError&) {
      continue;
    }
  }
  Writer w;
  w.boolean(have_chosen);
  if (have_chosen) w.bytes(chosen.encode());
  broadcast(make_msg(MsgType::kNewView, target, 0, w.take()));
  if (have_chosen) {
    store_.add(chosen);
    if (chosen.height > accepted_height_ &&
        store_.extends(chosen.hash(), committed_tip())) {
      accepted_tip_ = chosen.hash();
      accepted_height_ = chosen.height;
    }
  }
  enter_view(target);
  propose();
}

void MinBftReplica::handle_new_view(NodeId from, const Msg& msg) {
  if (msg.view <= v_cur_ || msg.author != leader_of(msg.view)) return;
  try {
    Reader r(msg.data);
    if (r.boolean()) {
      const Block b = Block::decode(r.bytes());
      (void)integrate_block(b, from);
      if (b.height > accepted_height_ &&
          store_.extends(b.hash(), committed_tip())) {
        accepted_tip_ = b.hash();
        accepted_height_ = b.height;
      }
    }
  } catch (const SerdeError&) {
    return;
  }
  enter_view(msg.view);
}

void MinBftReplica::enter_view(std::uint64_t view) {
  if (tracing()) {
    trace_instant("view", "new_view", {{"view", exp::Json(view)}});
  }
  v_cur_ = view;
  vc_target_ = view;
  phase_ = Phase::kSteady;
  seen_.clear();
  vc_msgs_.erase(vc_msgs_.begin(), vc_msgs_.upper_bound(view));
  reset_progress_timer(10 * cfg_.delta);
  drain_buffered();
}

// ---------------------------------------------------------------------------
// Chain, checkpoint and membership hooks
// ---------------------------------------------------------------------------

void MinBftReplica::on_chain_connected(const Block& block) {
  const BlockHash h = block.hash();
  if (pending_commit_.erase(h) > 0) try_commit(h);
}

void MinBftReplica::on_low_water(const Block& root) {
  seen_.erase(seen_.begin(), seen_.upper_bound(root.height));
  for (auto it = commit_authors_.begin(); it != commit_authors_.end();) {
    const Block* b = store_.get(it->first);
    if (b != nullptr && b->height <= root.height) {
      commit_sent_.erase(it->first);
      pending_commit_.erase(it->first);
      it = commit_authors_.erase(it);
    } else {
      ++it;
    }
  }
  tracker_.forget_window(kDigestWindow);
}

void MinBftReplica::on_membership_change(const smr::MembershipPolicy& policy) {
  // Arm a contiguity rebase for every signer that was NOT active in the
  // previous generation. Its counter kept attesting (view changes, past
  // stints) while no one here tracked it, so demanding last+1 would park
  // every future message in holdback forever. Stale holdback entries for
  // that sender are dropped too — they predate the new baseline.
  const std::uint64_t prev = policy.generation - 1;
  for (const smr::PolicyEntry& e : policy.signers) {
    if (membership().known(prev) && membership().is_signer(e.node, prev)) {
      continue;
    }
    tracker_.rebase(e.node);
    const auto q = holdback_.find(e.node);
    if (q != holdback_.end()) {
      holdback_total_ -= q->second.size();
      holdback_.erase(q);
    }
  }
}

void MinBftReplica::on_state_transfer(const Block& root) {
  accepted_tip_ = root.hash();
  accepted_height_ = root.height;
  if (root.view > v_cur_) v_cur_ = root.view;
  vc_target_ = std::max(vc_target_, v_cur_);
  phase_ = Phase::kSteady;
  seen_.clear();
  commit_authors_.clear();
  commit_sent_.clear();
  pending_commit_.clear();
  holdback_.clear();
  holdback_total_ = 0;
  reset_progress_timer(12 * cfg_.delta);
  drain_buffered();
}

void MinBftReplica::handle(NodeId from, const Msg& msg) {
  if (crashed_) return;
  switch (msg.type) {
    case MsgType::kPropose:
      handle_propose(from, msg);
      break;
    case MsgType::kCommit:
      handle_commit_msg(from, msg);
      break;
    case MsgType::kViewChange:
      handle_view_change(msg);
      break;
    case MsgType::kNewView:
      handle_new_view(from, msg);
      break;
    default:
      break;
  }
}

}  // namespace eesmr::baselines
