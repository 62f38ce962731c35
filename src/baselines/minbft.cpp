#include "src/baselines/minbft.hpp"

#include <optional>

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

/// kViewChange / kNewView payload: the reported block, if any.
Bytes encode_tip(const Block* tip) {
  Writer w;
  w.boolean(tip != nullptr);
  if (tip != nullptr) w.bytes(tip->encode());
  return w.take();
}
std::optional<Block> decode_tip(BytesView payload) {
  Reader r(payload);
  if (!r.boolean()) return std::nullopt;
  return Block::decode(r.bytes());
}
}  // namespace

MinBftReplica::MinBftReplica(net::Network& net, smr::ReplicaConfig cfg,
                             smr::ByzantineConfig byz, energy::Meter* meter)
    : ViewChangeReplica(net, std::move(cfg), byz, meter,
                        "minbft_propose", "minbft_progress_timer"),
      counter_(cfg_.keyring, cfg_.id, meter, cfg_.profiler),
      gap_timer_(sched_) {
  tracker_.set_max_gap(kMaxCounterGap);
}

bool MinBftReplica::requires_signature_check(const Msg& msg) const {
  // kPropose / kCommit authenticate via the embedded attestation — the
  // UI *replaces* the protocol signature (MinBFT's core saving).
  return msg.type != MsgType::kPropose && msg.type != MsgType::kCommit;
}

// ---------------------------------------------------------------------------
// Steady state: attested prepare (kPropose) -> attested commits
// ---------------------------------------------------------------------------

void MinBftReplica::send_proposal(const Block& b) {
  // Counter reuse is structurally impossible: the two blocks of an
  // equivocation pair necessarily occupy successive counter values, so
  // every correct receiver sees them in the same order and rejects the
  // second on content.
  const BlockHash h = hash_block(b);
  const Attestation att = counter_.attest(h);
  Writer w;
  w.bytes(b.encode());
  w.bytes(att.encode());
  const Msg prop = unsigned_msg(MsgType::kPropose, b.height, w.take());
  broadcast(prop);
  prof_flow_block("propose", b, energy::Stream::kProposal,
                  prop.wire_size());
  if (tracing()) {
    trace_instant("commit", "propose",
                  {{"height", exp::Json(b.height)},
                   {"view", exp::Json(v_cur_)},
                   {"counter", exp::Json(att.counter)}});
  }
  store_.add(b);
  handle_propose(cfg_.id, prop);
}

bool MinBftReplica::admit_attested(const Msg& msg, const Attestation& att,
                                   const char* what) {
  if (!trusted::verify_attestation(*cfg_.keyring, att, meter_, cfg_.profiler,
                                   what)) {
    return false;
  }
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
      arm_gap_timer();
      return false;
    }
  }
  return false;
}

void MinBftReplica::drain_holdback() {
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
  if (!admit_attested(msg, att, "proposal")) return;
  // Process this proposal's content BEFORE draining the hold-back queue:
  // the held successor at counter+1 may be the second half of an
  // equivocation pair, and handling it first would invert the counter
  // order at the content layer (receivers would fork on arrival order).
  if (for_current_view(msg) && phase_ == Phase::kSteady) {
    accept_proposal(from, msg, b, att);
  }
  drain_holdback();
}

void MinBftReplica::accept_proposal(NodeId from, const Msg& msg,
                                    const Block& b, const Attestation& att) {
  const BlockHash h = b.hash();
  // Content equivocation at successive counters: every correct replica
  // processes proposals in counter order (admission + caller-side
  // holdback drain), so all accept the first block for this height and
  // demote the primary on the second.
  if (!admit_proposal(from, msg, b, h)) return;
  (void)raise_branch(h, b);
  // The primary's attested prepare counts as its commit.
  tally_commit(att.node, h);
  if (att.node == cfg_.id) return;  // the primary does not send kCommit
  if (!commit_sent_.insert(h).second) return;
  trace_vote(b);
  const Attestation own = counter_.attest(h);
  Writer w;
  w.bytes(h);
  w.bytes(own.encode());
  const Msg commit = unsigned_msg(MsgType::kCommit, b.height, w.take());
  prof_flow_block("vote", b, energy::Stream::kVote, commit.wire_size());
  broadcast(commit);
  tally_commit(cfg_.id, h);
}

void MinBftReplica::handle_commit_msg(const Msg& msg) {
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
  if (!admit_attested(msg, att, "vote")) return;
  // Tally regardless of msg.view: the commit is an attested acceptance
  // of block h, and the f+1 quorum is per block hash — acceptances that
  // crossed a view change still count (and must, for liveness under
  // leader churn).
  tally_commit(att.node, h);
  drain_holdback();
}

void MinBftReplica::tally_commit(NodeId author, const BlockHash& h) {
  // Only the count is read: the vote is the attested author alone.
  Msg vote;
  vote.author = author;
  if (commit_authors_.add(h, vote) >= quorum()) try_commit(h);
}

void MinBftReplica::try_commit(const BlockHash& h) {
  // The certify trace marks the quorum of a block that can commit now.
  const Block* b = store_.get(h);
  if (b != nullptr && store_.extends(h, committed_tip())) {
    trace_instant("commit", "certify", {{"height", exp::Json(b->height)}});
    prof_flow_block("certify", *b, energy::Stream::kVote, 0);
  }
  ViewChangeReplica::try_commit(h);
}

void MinBftReplica::handle_steady(NodeId from, const Msg& msg) {
  switch (msg.type) {
    case MsgType::kPropose:
      handle_propose(from, msg);
      break;
    case MsgType::kCommit:
      handle_commit_msg(msg);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Counter gaps
// ---------------------------------------------------------------------------

void MinBftReplica::on_restart() {
  ViewChangeReplica::on_restart();
  if (started_) arm_gap_timer();
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
    drain_holdback();
  }
  arm_gap_timer();
}

// ---------------------------------------------------------------------------
// View change payloads: the latest accepted block
// ---------------------------------------------------------------------------

Bytes MinBftReplica::view_change_report() {
  // Report the latest accepted block so the new primary re-proposes the
  // highest branch any correct replica accepted.
  return encode_tip(store_.get(branch_tip_));
}

Bytes MinBftReplica::choose_new_view(const std::vector<Msg>& reports) {
  std::optional<Block> chosen;
  for (const Msg& report : reports) {
    try {
      const std::optional<Block> b = decode_tip(report.data);
      if (b && (!chosen || b->height > chosen->height)) chosen = b;
    } catch (const SerdeError&) {
      continue;
    }
  }
  return encode_tip(chosen ? &*chosen : nullptr);
}

bool MinBftReplica::adopt_new_view(BytesView payload, NodeId from, bool own) {
  try {
    const std::optional<Block> b = decode_tip(payload);
    if (!b) return true;
    if (own) {
      store_.add(*b);
    } else {
      (void)integrate_block(*b, from);
    }
    const BlockHash h = b->hash();
    if (store_.extends(h, committed_tip())) (void)raise_branch(h, *b);
  } catch (const SerdeError&) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Checkpoint and membership hooks
// ---------------------------------------------------------------------------

void MinBftReplica::prune_tallies(std::uint64_t height) {
  commit_authors_.erase_if(settled_at(height));
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

void MinBftReplica::reset_tallies() {
  commit_authors_.clear();
  holdback_.clear();
  holdback_total_ = 0;
}

}  // namespace eesmr::baselines
