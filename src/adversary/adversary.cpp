#include "src/adversary/adversary.hpp"

#include <stdexcept>

#include "src/smr/request.hpp"

namespace eesmr::adversary {

namespace {

bool window_active(sim::SimTime now, sim::SimTime from, sim::SimTime until) {
  return now >= from && (until == 0 || now < until);
}

bool stream_matches(int rule, energy::Stream s) {
  return rule == kAnyStream || rule == static_cast<int>(s);
}

}  // namespace

// ---------------------------------------------------------------------------
// NetAdversary
// ---------------------------------------------------------------------------

NetAdversary::NetAdversary(std::vector<AdversarySpec::LinkFault> rules,
                           sim::Scheduler& sched, std::uint64_t seed)
    : rules_(std::move(rules)), sched_(sched), rng_(seed) {}

void NetAdversary::trace_fault(const char* what, NodeId from, NodeId to) {
  if (tracer_ != nullptr) {
    tracer_->instant(sched_.now(), static_cast<std::int64_t>(to), "fault",
                     what, {{"from", exp::Json(from)}, {"to", exp::Json(to)}});
  }
}

net::FaultVerdict NetAdversary::on_delivery(NodeId from, NodeId to,
                                            energy::Stream stream,
                                            std::size_t /*bytes*/) {
  net::FaultVerdict v;
  for (const AdversarySpec::LinkFault& r : rules_) {
    if (r.from != kAnyNode && r.from != from) continue;
    if (r.to != kAnyNode && r.to != to) continue;
    if (!stream_matches(r.stream, stream)) continue;
    if (!window_active(sched_.now(), r.from_time, r.until_time)) continue;
    // First matching rule decides the delivery.
    if (r.drop > 0 && rng_.chance(r.drop)) {
      ++dropped_;
      trace_fault("drop", from, to);
      v.drop = true;
      return v;
    }
    if (r.duplicate > 0 && rng_.chance(r.duplicate)) {
      ++duplicated_;
      trace_fault("duplicate", from, to);
      v.duplicates = 1;
    }
    if (r.reorder > 0 && r.reorder_delay > 0 && rng_.chance(r.reorder)) {
      ++reordered_;
      trace_fault("reorder", from, to);
      v.extra_delay = r.reorder_delay;
    }
    return v;
  }
  return v;
}

// ---------------------------------------------------------------------------
// WithholdFilter
// ---------------------------------------------------------------------------

WithholdFilter::WithholdFilter(std::vector<AdversarySpec::Withhold> rules,
                               sim::Scheduler& sched, std::uint64_t seed)
    : rules_(std::move(rules)), sched_(sched), rng_(seed) {}

bool WithholdFilter::allow(const smr::Msg& m, NodeId /*dest*/) {
  const energy::Stream s = smr::stream_of(m.type);
  for (const AdversarySpec::Withhold& r : rules_) {
    if (!stream_matches(r.stream, s)) continue;
    if (!window_active(sched_.now(), r.from_time, r.until_time)) continue;
    if (r.prob >= 1.0 || rng_.chance(r.prob)) {
      ++withheld_;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// ByzantineClient
// ---------------------------------------------------------------------------

ByzantineClient::ByzantineClient(net::Network& net, NodeId id,
                                 std::shared_ptr<crypto::Keyring> keyring,
                                 AdversarySpec::ByzClient spec,
                                 std::uint64_t seed, energy::Meter* meter)
    : router_(net, id, this),
      sched_(net.scheduler()),
      id_(id),
      spec_(spec),
      rng_(seed),
      crypto_(id, "client", /*replicas=*/0, keyring, /*agg=*/nullptr, meter,
              /*profiler=*/nullptr, /*memo=*/nullptr) {
  if (!keyring || keyring->size() <= id_) {
    throw std::invalid_argument("ByzantineClient: keyring must cover id");
  }
}

Bytes ByzantineClient::next_request() {
  // Replay flood: one genuinely signed request, replayed byte-identically
  // forever: the first copy orders and executes; every later copy probes
  // the pool dedup, reply-cache replay, and (after GC) the per-client
  // watermark's free drop.
  const bool replay =
      spec_.kind == AdversarySpec::ByzClient::Kind::kReplayFlood;
  if (replay && !replay_wire_.empty()) return replay_wire_;
  smr::ClientRequest req;
  req.client = id_;
  req.req_id = replay ? 1 : next_req_id_++;
  req.op.resize(spec_.op_bytes);
  for (auto& b : req.op) b = static_cast<std::uint8_t>(rng_.next());
  req.sig = crypto_.sign(req.preimage(), /*share=*/false, "request");
  if (replay) return replay_wire_ = smr::request_frame(req);
  // Garbage flood: fresh req_id, correctly sized but corrupted signature
  // — every replica pays one metered verification and must reject.
  req.sig[rng_.below(req.sig.size())] ^=
      static_cast<std::uint8_t>(1 + rng_.below(255));
  return smr::request_frame(req);
}

void ByzantineClient::start() { fire(); }

void ByzantineClient::fire() {
  if (spec_.max_requests > 0 && sent_ >= spec_.max_requests) return;
  router_.broadcast(next_request(), energy::Stream::kRequest);
  ++sent_;
  sched_.after(std::max<sim::Duration>(1, spec_.interval), "adversary",
               [this] { fire(); });
}

// ---------------------------------------------------------------------------
// Attack matrix
// ---------------------------------------------------------------------------

const char* attack_name(AttackKind a) {
  switch (a) {
    case AttackKind::kNone:
      return "none";
    case AttackKind::kCrash:
      return "crash";
    case AttackKind::kCrashRecover:
      return "crash_recover";
    case AttackKind::kOverBudgetCrash:
      return "over_budget_crash";
    case AttackKind::kEquivocate:
      return "equivocate";
    case AttackKind::kEquivocateSelective:
      return "equivocate_selective";
    case AttackKind::kWithholdProposals:
      return "withhold_proposals";
    case AttackKind::kVoteSuppression:
      return "vote_suppression";
    case AttackKind::kDupReorder:
      return "dup_reorder";
    case AttackKind::kFaultyLinkDrop:
      return "faulty_link_drop";
    case AttackKind::kGarbageClientFlood:
      return "garbage_client_flood";
    case AttackKind::kReplayClientFlood:
      return "replay_client_flood";
    case AttackKind::kChaseLeader:
      return "chase_leader";
    case AttackKind::kMembershipChurn:
      return "membership_churn";
  }
  return "?";
}

const std::vector<AttackKind>& all_attacks() {
  static const std::vector<AttackKind> kAll = {
      AttackKind::kNone,
      AttackKind::kCrash,
      AttackKind::kCrashRecover,
      AttackKind::kOverBudgetCrash,
      AttackKind::kEquivocate,
      AttackKind::kEquivocateSelective,
      AttackKind::kWithholdProposals,
      AttackKind::kVoteSuppression,
      AttackKind::kDupReorder,
      AttackKind::kFaultyLinkDrop,
      AttackKind::kGarbageClientFlood,
      AttackKind::kReplayClientFlood,
      AttackKind::kChaseLeader,
      AttackKind::kMembershipChurn,
  };
  return kAll;
}

void apply_attack(harness::ClusterConfig& cfg, AttackKind attack) {
  const std::size_t f = cfg.f;
  AdversarySpec& adv = cfg.adversary;
  // Faulty replicas are 1..f: leader_of(view) = view % n, so node 1
  // leads view 1 and leader-centric attacks bite immediately.
  switch (attack) {
    case AttackKind::kNone:
      return;
    case AttackKind::kCrash:
      for (NodeId i = 1; i <= f; ++i) {
        cfg.faults.push_back({i, smr::ByzantineMode::kCrash, 5});
      }
      return;
    case AttackKind::kCrashRecover: {
      for (NodeId i = 1; i <= f; ++i) {
        AdversarySpec::CrashRecover cr;
        cr.node = i;
        cr.crash_at = sim::milliseconds(500);
        cr.recover_at = sim::milliseconds(1500);
        adv.crashes.push_back(cr);
      }
      return;
    }
    case AttackKind::kOverBudgetCrash: {
      // n-1 crashes, early enough that no protocol has finished a
      // meaningful run: a lone survivor can never assemble an f+1 blame
      // quorum, so no protocol claims liveness here.
      for (NodeId i = 1; i < cfg.n; ++i) {
        AdversarySpec::CrashRecover cr;
        cr.node = i;
        cr.crash_at = sim::milliseconds(100);
        adv.crashes.push_back(cr);
      }
      return;
    }
    case AttackKind::kEquivocate:
      for (NodeId i = 1; i <= f; ++i) {
        cfg.faults.push_back({i, smr::ByzantineMode::kEquivocate, 5});
      }
      return;
    case AttackKind::kEquivocateSelective:
      for (NodeId i = 1; i <= f; ++i) {
        cfg.faults.push_back(
            {i, smr::ByzantineMode::kEquivocateSelective, 5});
      }
      return;
    case AttackKind::kWithholdProposals:
    case AttackKind::kVoteSuppression: {
      const auto stream = attack == AttackKind::kWithholdProposals
                              ? energy::Stream::kProposal
                              : energy::Stream::kVote;
      for (NodeId i = 1; i <= f; ++i) {
        AdversarySpec::Withhold w;
        w.node = i;
        w.stream = static_cast<int>(stream);
        adv.withholds.push_back(w);
      }
      return;
    }
    case AttackKind::kDupReorder: {
      // Duplication + reordering on every link, with the extra delay at
      // the hop bound so end-to-end delivery stays within Δ (bounded
      // synchrony holds; every protocol must ride it out).
      AdversarySpec::LinkFault lf;
      lf.duplicate = 0.3;
      lf.reorder = 0.3;
      lf.reorder_delay = cfg.hop_delay;
      adv.link_faults.push_back(lf);
      return;
    }
    case AttackKind::kFaultyLinkDrop: {
      for (NodeId i = 1; i <= f; ++i) {
        AdversarySpec::LinkFault lf;
        lf.from = i;
        lf.drop = 0.5;
        adv.link_faults.push_back(lf);
        adv.mark_faulty.push_back(i);
      }
      return;
    }
    case AttackKind::kGarbageClientFlood:
    case AttackKind::kReplayClientFlood: {
      AdversarySpec::ByzClient bc;
      bc.kind = attack == AttackKind::kGarbageClientFlood
                    ? AdversarySpec::ByzClient::Kind::kGarbageFlood
                    : AdversarySpec::ByzClient::Kind::kReplayFlood;
      bc.interval = sim::milliseconds(40);
      adv.clients.push_back(bc);
      return;
    }
    case AttackKind::kChaseLeader: {
      // Adaptive crash following the leader: the harness re-targets the
      // current-view leader every period. One victim at a time (within
      // every protocol's f >= 1 crash budget); the period leaves room
      // for the view change plus a stretch of commits before the chase
      // catches up with the new leader.
      adv.chase_leader.period = sim::milliseconds(400);
      adv.chase_leader.from_time = sim::milliseconds(300);
      return;
    }
    case AttackKind::kMembershipChurn: {
      // Byzantine equivocation straddling a membership handoff: one
      // spare rides outside the genesis signer set and a committed
      // policy block swaps it in for the last genesis signer — a
      // one-for-one replacement, so the active set keeps the size the
      // f-derived quorums were provisioned for (growing it instead
      // would shrink quorum intersection under the very equivocators
      // this cell runs). The usual f equivocators fire around the
      // generation flip, and the joiner itself is crashed
      // mid-bootstrap, recovering later via state transfer. Safety
      // must hold across certificates formed on both sides of the
      // flip.
      cfg.n += 1;
      cfg.spares = 1;
      const NodeId joiner = static_cast<NodeId>(cfg.n - 1);
      const NodeId retired = static_cast<NodeId>(cfg.n - 2);
      harness::ClusterConfig::MembershipEvent swap;
      swap.at = sim::milliseconds(150);
      for (NodeId i = 0; i < cfg.n; ++i) {
        if (i == retired) continue;
        swap.policy.signers.push_back({i, 1});
      }
      cfg.membership_events.push_back(swap);
      for (NodeId i = 1; i <= f; ++i) {
        cfg.faults.push_back({i, smr::ByzantineMode::kEquivocate, 5});
      }
      AdversarySpec::CrashRecover cr;
      cr.node = joiner;
      cr.crash_at = sim::milliseconds(250);
      cr.recover_at = sim::milliseconds(1250);
      adv.crashes.push_back(cr);
      return;
    }
  }
}

bool expect_liveness(harness::Protocol /*protocol*/, AttackKind attack) {
  // Every SMR protocol in the matrix — EESMR, Sync HotStuff, PBFT at
  // n=3f+1 and MinBFT at n=2f+1 — claims liveness at its f budget under
  // every attack, including the adaptive chase-the-leader crash (one
  // victim at a time; view changes route around it and victims catch up
  // by chain sync or state transfer). Only the deliberately over-budget
  // crash exceeds any documented tolerance.
  return attack != AttackKind::kOverBudgetCrash;
}

}  // namespace eesmr::adversary
