#include "src/baselines/pbft.hpp"

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
    : ViewChangeReplica(net, pbft_config(std::move(cfg)), byz, meter,
                        "pbft_propose", "pbft_progress_timer") {}

// ---------------------------------------------------------------------------
// Steady state: pre-prepare -> prepare -> commit
// ---------------------------------------------------------------------------

void PbftReplica::send_proposal(const Block& b) {
  (void)hash_block(b);
  Msg prop = make_msg(MsgType::kPropose, b.height, b.encode());
  broadcast(prop);
  prof_flow_block("propose", b, energy::Stream::kProposal,
                  prop.wire_size());
  if (tracing()) {
    trace_instant("commit", "propose",
                  {{"height", exp::Json(b.height)},
                   {"view", exp::Json(v_cur_)}});
  }
  store_.add(b);
  handle_propose(cfg_.id, prop);
}

void PbftReplica::handle_propose(NodeId from, const Msg& msg) {
  if (!for_current_view(msg)) return;
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
  // Conflicting pre-prepares for one height in one view demote the
  // primary.
  if (!admit_proposal(from, msg, b, h)) return;
  if (prepares_.has({b.view, h}, cfg_.id)) return;
  trace_vote(b);
  Msg prep = make_msg(MsgType::kPrepare, b.height, h);
  prof_flow_block("vote", b, energy::Stream::kVote, prep.wire_size());
  broadcast(prep);
  handle_prepare(prep);  // count own prepare
}

void PbftReplica::handle_prepare(const Msg& msg) {
  if (!for_current_view(msg)) return;
  if (prepares_.add({msg.view, msg.data}, msg) != quorum()) return;
  const Block* b = store_.get(msg.data);
  if (b == nullptr) return;  // tally kept; prepared once it connects
  on_prepared(msg.data, *b);
}

void PbftReplica::on_prepared(const BlockHash& h, const Block& b) {
  // Only prepares signed in b's view certify it.
  const smr::VoteKey key{b.view, h};
  if (prepares_.count(key) < quorum()) return;
  // Record the highest prepared branch (what a view change carries).
  if (raise_branch(h, b)) {
    prepared_cert_ = make_cert(prepares_.quorum_msgs(key, quorum()));
  }
  trace_instant("commit", "certify", {{"height", exp::Json(b.height)}});
  prof_flow_block("certify", b, energy::Stream::kVote, 0);
  if (!commit_sent_.insert(h).second) return;
  Msg commit = make_msg(MsgType::kCommit, b.height, h);
  broadcast(commit);
  handle_commit(commit);  // count own commit
}

void PbftReplica::handle_commit(const Msg& msg) {
  if (!for_current_view(msg)) return;
  if (commits_.add({msg.view, msg.data}, msg) >= quorum()) try_commit(msg.data);
}

void PbftReplica::handle_steady(NodeId from, const Msg& msg) {
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
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// View change payloads: the highest prepared branch
// ---------------------------------------------------------------------------

Bytes PbftReplica::view_change_report() {
  PreparedState ps;
  if (prepared_cert_.has_value()) {
    const Block* b = store_.get(branch_tip_);
    if (b != nullptr) {
      ps.has_prepared = true;
      ps.cert = *prepared_cert_;
      ps.block = *b;
    }
  }
  return ps.encode();
}

Bytes PbftReplica::choose_new_view(const std::vector<Msg>& reports) {
  // Pick the highest valid prepared branch among the 2f+1 reports.
  PreparedState chosen;
  std::uint64_t best = 0;
  for (const Msg& report : reports) {
    PreparedState ps;
    try {
      ps = PreparedState::decode(report.data);
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
  return chosen.encode();
}

bool PbftReplica::adopt_new_view(BytesView payload, NodeId from, bool own) {
  PreparedState ps;
  try {
    ps = PreparedState::decode(payload);
  } catch (const SerdeError&) {
    return false;
  }
  if (!ps.has_prepared) return true;
  if (own) {
    store_.add(ps.block);  // choose_new_view verified it
  } else {
    if (ps.cert.type != MsgType::kPrepare ||
        ps.cert.data != ps.block.hash() || !verify_qc(ps.cert, quorum())) {
      return false;
    }
    (void)integrate_block(ps.block, from);
  }
  if (raise_branch(ps.block.hash(), ps.block)) prepared_cert_ = ps.cert;
  return true;
}

// ---------------------------------------------------------------------------
// Chain and checkpoint hooks
// ---------------------------------------------------------------------------

void PbftReplica::on_chain_connected(const Block& block) {
  // A prepare quorum that was waiting for this block.
  if (commit_sent_.count(block.hash()) == 0) on_prepared(block.hash(), block);
  ViewChangeReplica::on_chain_connected(block);
}

void PbftReplica::prune_tallies(std::uint64_t height) {
  prepares_.erase_if(settled_at(height));
  commits_.erase_if(settled_at(height));
}

void PbftReplica::reset_tallies() {
  prepared_cert_.reset();
  prepares_.clear();
  commits_.clear();
}

}  // namespace eesmr::baselines
