#include "src/baselines/pbft.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/serde.hpp"

namespace eesmr::baselines {

using smr::Block;
using smr::BlockHash;
using smr::Msg;
using smr::MsgType;
using smr::QuorumCert;

namespace {
/// PBFT's vote quorum is 2f+1 (of n=3f+1); default it into the shared
/// config slot unless the harness overrode it.
smr::ReplicaConfig pbft_config(smr::ReplicaConfig cfg) {
  if (cfg.quorum == 0) cfg.quorum = 2 * cfg.f + 1;
  return cfg;
}

/// kViewChange / kNewView payload: the sender's highest prepared branch.
struct PreparedState {
  bool has_prepared = false;
  QuorumCert cert;
  Block block;

  [[nodiscard]] Bytes encode() const {
    Writer w;
    w.boolean(has_prepared);
    if (has_prepared) {
      w.bytes(cert.encode());
      w.bytes(block.encode());
    }
    return w.take();
  }
  static PreparedState decode(BytesView bytes) {
    Reader r(bytes);
    PreparedState p;
    p.has_prepared = r.boolean();
    if (p.has_prepared) {
      p.cert = QuorumCert::decode(r.bytes());
      p.block = Block::decode(r.bytes());
    }
    r.expect_done();
    return p;
  }
};
}  // namespace

PbftReplica::PbftReplica(net::Network& net, smr::ReplicaConfig cfg,
                         smr::ByzantineConfig byz, energy::Meter* meter)
    : ReplicaBase(net, pbft_config(std::move(cfg)), meter),
      byz_(byz),
      progress_timer_(sched_) {
  prepared_tip_ = smr::genesis_hash();
}

void PbftReplica::start() {
  if (started_) return;
  started_ = true;
  v_cur_ = 1;
  vc_target_ = 1;
  phase_ = Phase::kSteady;
  reset_progress_timer(10 * cfg_.delta);
  if (is_leader()) propose();
}

// ---------------------------------------------------------------------------
// Steady state: pre-prepare -> prepare -> commit
// ---------------------------------------------------------------------------

BlockHash PbftReplica::proposal_parent() const {
  if (prepared_height_ > committed_height() &&
      store_.extends(prepared_tip_, committed_tip())) {
    return prepared_tip_;
  }
  return committed_tip();
}

void PbftReplica::propose() {
  if (crashed_ || phase_ != Phase::kSteady || !online() || !is_leader()) {
    return;
  }
  const BlockHash parent_hash = proposal_parent();
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
    (void)hash_block(b);
    Msg prop = make_msg(MsgType::kPropose, b.height, b.encode());
    broadcast(prop);
    prof_flow_block("propose", b, energy::Stream::kProposal,
                    prop.encode().size());
    if (tracing()) {
      trace_instant("commit", "propose",
                    {{"height", exp::Json(b.height)},
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

void PbftReplica::handle_propose(NodeId from, const Msg& msg) {
  if (msg.view != v_cur_) {
    if (msg.view > v_cur_) buffer_future(msg);
    return;
  }
  if (phase_ != Phase::kSteady) return;
  Block b;
  try {
    b = Block::decode(msg.data);
  } catch (const SerdeError&) {
    return;
  }
  const NodeId leader = leader_of(v_cur_);
  if (msg.author != leader || b.proposer != leader || b.view != v_cur_) {
    return;
  }
  const BlockHash h = hash_block(b);

  // Equivocation detection: conflicting pre-prepares for one height in
  // one view demote the primary.
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
  // The pre-prepare must extend the committed branch.
  if (!store_.extends(h, committed_tip())) return;
  if (!prepare_sent_.insert(h).second) return;
  if (tracing()) {
    trace_begin("block", "block", b.height,
                {{"round", exp::Json(b.round)}, {"view", exp::Json(b.view)}});
    trace_instant("commit", "vote", {{"height", exp::Json(b.height)}});
  }
  Msg prep = make_msg(MsgType::kPrepare, b.height, h);
  prof_flow_block("vote", b, energy::Stream::kVote, prep.encode().size());
  broadcast(prep);
  handle_prepare(prep);  // count own prepare
}

void PbftReplica::handle_prepare(const Msg& msg) {
  if (msg.view != v_cur_) {
    if (msg.view > v_cur_) buffer_future(msg);
    return;
  }
  auto& bucket = prepares_[msg.data];
  for (const Msg& m : bucket) {
    if (m.author == msg.author) return;
  }
  bucket.push_back(msg);
  if (bucket.size() != quorum()) return;
  const Block* b = store_.get(msg.data);
  if (b == nullptr) return;  // tally kept; prepared once it connects
  on_prepared(msg.data, *b);
}

void PbftReplica::on_prepared(const BlockHash& h, const Block& b) {
  // Record the highest prepared branch (what a view change carries).
  if (b.height > prepared_height_) {
    prepared_tip_ = h;
    prepared_height_ = b.height;
    auto& bucket = prepares_[h];
    prepared_cert_ = make_cert(std::vector<Msg>(
        bucket.begin(), bucket.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(bucket.size(),
                                                      quorum()))));
  }
  trace_instant("commit", "certify", {{"height", exp::Json(b.height)}});
  prof_flow_block("certify", b, energy::Stream::kVote, 0);
  if (!commit_sent_.insert(h).second) return;
  Msg commit = make_msg(MsgType::kCommit, b.height, h);
  broadcast(commit);
  handle_commit(commit);  // count own commit
}

void PbftReplica::handle_commit(const Msg& msg) {
  if (msg.view != v_cur_) {
    if (msg.view > v_cur_) buffer_future(msg);
    return;
  }
  auto& bucket = commits_[msg.data];
  for (const Msg& m : bucket) {
    if (m.author == msg.author) return;
  }
  bucket.push_back(msg);
  if (bucket.size() >= quorum()) try_commit(msg.data);
}

void PbftReplica::try_commit(const BlockHash& h) {
  if (!store_.contains(h) || !store_.extends(h, committed_tip())) {
    // Quorum reached before the chain connected (catch-up): finish when
    // sync delivers the ancestry.
    pending_commit_.insert(h);
    return;
  }
  commit_chain(h);
  reset_progress_timer(10 * cfg_.delta);
}

void PbftReplica::on_commit(const Block& block) {
  (void)block;
  // Chained self-clocking: the primary pipelines the next pre-prepare as
  // soon as the previous block commits locally.
  if (!crashed_ && phase_ == Phase::kSteady && is_leader()) {
    sched_.after(0, "pbft_propose", [this, v = v_cur_] {
      if (v == v_cur_ && phase_ == Phase::kSteady) propose();
    });
  }
}

// ---------------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------------

void PbftReplica::reset_progress_timer(sim::Duration d) {
  if (crashed_) return;
  progress_timer_.start(d, "pbft_progress_timer",
                        [this] { on_progress_timeout(); });
}

void PbftReplica::on_progress_timeout() {
  if (crashed_ || !online()) return;
  // First timeout leaves steady state for v+1; every further timeout
  // targets the next view (the PBFT exponential-backoff ladder,
  // flattened — the simulator's Δ is exact).
  send_view_change(std::max(vc_target_ + 1, v_cur_ + 1));
}

void PbftReplica::on_restart() {
  if (crashed_ || !started_) return;
  reset_progress_timer(10 * cfg_.delta);
}

void PbftReplica::send_view_change(std::uint64_t target) {
  if (crashed_ || target <= v_cur_) return;
  phase_ = Phase::kViewChange;
  vc_target_ = std::max(vc_target_, target);
  trace_instant("view", "blame", {{"view", exp::Json(v_cur_)},
                                  {"target", exp::Json(vc_target_)}});
  PreparedState ps;
  if (prepared_cert_.has_value()) {
    const Block* b = store_.get(prepared_tip_);
    if (b != nullptr) {
      ps.has_prepared = true;
      ps.cert = *prepared_cert_;
      ps.block = *b;
    }
  }
  const Msg vc = make_msg(MsgType::kViewChange, vc_target_, 0, ps.encode());
  broadcast(vc);
  handle_view_change(vc);
  reset_progress_timer(10 * cfg_.delta);
}

void PbftReplica::handle_view_change(const Msg& msg) {
  if (msg.view <= v_cur_) return;
  auto& bucket = vc_msgs_[msg.view];
  if (!bucket.emplace(msg.author, msg).second) return;
  // f+1 replicas already gave up on a lower view than ours: join them
  // (PBFT's liveness rule — a correct replica is among the f+1).
  if (bucket.size() >= cfg_.f + 1 && msg.view > vc_target_) {
    send_view_change(msg.view);
  }
  if (bucket.size() >= quorum()) maybe_announce_new_view(msg.view);
}

void PbftReplica::maybe_announce_new_view(std::uint64_t target) {
  if (leader_of(target) != cfg_.id || crashed_ || !online()) return;
  if (target <= v_cur_ || !nv_sent_.insert(target).second) return;
  // Pick the highest valid prepared branch among the 2f+1 reports.
  PreparedState chosen;
  std::uint64_t best = 0;
  for (const auto& [author, vc] : vc_msgs_[target]) {
    (void)author;
    PreparedState ps;
    try {
      ps = PreparedState::decode(vc.data);
    } catch (const SerdeError&) {
      continue;
    }
    if (!ps.has_prepared || ps.block.height <= best) continue;
    if (ps.cert.type != MsgType::kPrepare ||
        ps.cert.data != ps.block.hash() || !verify_qc(ps.cert, quorum())) {
      continue;
    }
    best = ps.block.height;
    chosen = ps;
  }
  broadcast(make_msg(MsgType::kNewView, target, 0, chosen.encode()));
  if (chosen.has_prepared) {
    store_.add(chosen.block);
    if (chosen.block.height > prepared_height_) {
      prepared_tip_ = chosen.block.hash();
      prepared_height_ = chosen.block.height;
      prepared_cert_ = chosen.cert;
    }
  }
  enter_view(target);
  propose();
}

void PbftReplica::handle_new_view(NodeId from, const Msg& msg) {
  if (msg.view <= v_cur_ || msg.author != leader_of(msg.view)) return;
  PreparedState ps;
  try {
    ps = PreparedState::decode(msg.data);
  } catch (const SerdeError&) {
    return;
  }
  if (ps.has_prepared) {
    if (ps.cert.type != MsgType::kPrepare ||
        ps.cert.data != ps.block.hash() || !verify_qc(ps.cert, quorum())) {
      return;
    }
    (void)integrate_block(ps.block, from);
    if (ps.block.height > prepared_height_) {
      prepared_tip_ = ps.block.hash();
      prepared_height_ = ps.block.height;
      prepared_cert_ = ps.cert;
    }
  }
  enter_view(msg.view);
}

void PbftReplica::enter_view(std::uint64_t view) {
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
// Chain and checkpoint hooks
// ---------------------------------------------------------------------------

void PbftReplica::on_chain_connected(const Block& block) {
  // A prepare quorum that was waiting for this block.
  const BlockHash h = block.hash();
  const auto pit = prepares_.find(h);
  if (pit != prepares_.end() && pit->second.size() >= quorum() &&
      commit_sent_.count(h) == 0) {
    on_prepared(h, block);
  }
  if (pending_commit_.erase(h) > 0) try_commit(h);
}

void PbftReplica::on_low_water(const Block& root) {
  seen_.erase(seen_.begin(), seen_.upper_bound(root.height));
  auto prune = [&](smr::BlockHashMap<std::vector<Msg>>& tallies,
                   smr::BlockHashSet& sent) {
    for (auto it = tallies.begin(); it != tallies.end();) {
      const Block* b = store_.get(it->first);
      if (b != nullptr && b->height <= root.height) {
        sent.erase(it->first);
        pending_commit_.erase(it->first);
        it = tallies.erase(it);
      } else {
        ++it;
      }
    }
  };
  prune(prepares_, prepare_sent_);
  prune(commits_, commit_sent_);
}

void PbftReplica::on_state_transfer(const Block& root) {
  prepared_tip_ = root.hash();
  prepared_height_ = root.height;
  prepared_cert_.reset();
  if (root.view > v_cur_) v_cur_ = root.view;
  vc_target_ = std::max(vc_target_, v_cur_);
  phase_ = Phase::kSteady;
  seen_.clear();
  prepares_.clear();
  prepare_sent_.clear();
  commits_.clear();
  commit_sent_.clear();
  pending_commit_.clear();
  reset_progress_timer(12 * cfg_.delta);
  drain_buffered();
}

void PbftReplica::handle(NodeId from, const Msg& msg) {
  if (crashed_) return;
  switch (msg.type) {
    case MsgType::kPropose:
      handle_propose(from, msg);
      break;
    case MsgType::kPrepare:
      handle_prepare(msg);
      break;
    case MsgType::kCommit:
      handle_commit(msg);
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
