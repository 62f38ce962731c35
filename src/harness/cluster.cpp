#include "src/harness/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

#include "src/adversary/adversary.hpp"

namespace eesmr::harness {

namespace {

/// Bring `mirror` level with a replica's retained `log`. Blocks below the
/// log's first height are gone from the replica: a checkpoint truncated
/// them, or a state transfer re-rooted the log above every height the
/// mirror holds. The rest of the mirror is the log's prefix, so only the
/// blocks committed since the last call are copied.
void sync_log(smr::BlockLog& mirror, const std::vector<smr::Block>& log) {
  mirror.drop_below(log.empty() ? UINT64_MAX : log.front().height);
  assert(mirror.size() <= log.size());
  for (std::size_t i = mirror.size(); i < log.size(); ++i) {
    mirror.append(log[i]);
  }
}

}  // namespace

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kEesmr:
      return "EESMR";
    case Protocol::kSyncHotStuff:
      return "SyncHotStuff";
    case Protocol::kOptSync:
      return "OptSync";
    case Protocol::kTrustedBaseline:
      return "TrustedBaseline";
    case Protocol::kPbft:
      return "PBFT";
    case Protocol::kMinBft:
      return "MinBFT";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// RunResult
// ---------------------------------------------------------------------------

bool RunResult::safety_ok() const {
  // Compare committed blocks per *height* across correct nodes: with
  // checkpoint truncation the retained logs are suffixes starting at
  // different offsets, so positional comparison would misalign.
  std::map<std::uint64_t, const smr::Block*> canon;
  for (std::size_t a = 0; a < logs.size(); ++a) {
    if (!correct[a]) continue;
    for (const smr::Block& b : logs[a]) {
      const auto [it, fresh] = canon.try_emplace(b.height, &b);
      if (!fresh && !(*it->second == b)) return false;
    }
  }
  return true;
}

std::uint64_t RunResult::committed_at(NodeId id) const {
  if (id < committed_blocks.size()) return committed_blocks[id];
  return logs.at(id).size();
}

std::size_t RunResult::min_committed() const {
  std::size_t best = SIZE_MAX;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (correct[i] && counted[i]) {
      best = std::min<std::size_t>(
          best, committed_at(static_cast<NodeId>(i)));
    }
  }
  return best == SIZE_MAX ? 0 : best;
}

std::size_t RunResult::max_committed() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (correct[i] && counted[i]) {
      best = std::max<std::size_t>(
          best, committed_at(static_cast<NodeId>(i)));
    }
  }
  return best;
}

std::size_t RunResult::max_retained_log() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (correct[i] && counted[i]) {
      best = std::max(best, footprints[i].retained_log);
    }
  }
  return best;
}

std::size_t RunResult::max_dedup_entries() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (correct[i] && counted[i]) {
      best = std::max(best, footprints[i].dedup_entries());
    }
  }
  return best;
}

double RunResult::accepted_per_sec() const {
  const double secs = sim::to_seconds(end_time);
  return secs <= 0 ? 0.0
                   : static_cast<double>(requests_accepted) / secs;
}

energy::StreamStats RunResult::stream_totals(energy::Stream s) const {
  energy::StreamStats out;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (i < correct.size() && correct[i] && i < counted.size() && counted[i]) {
      out += meters[i].stream(s);
    }
  }
  return out;
}

energy::StreamStats RunResult::stream_totals_all(energy::Stream s) const {
  energy::StreamStats out;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (i < correct.size() && correct[i]) out += meters[i].stream(s);
  }
  return out;
}

double RunResult::total_energy_mj() const {
  double total = 0;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (correct[i] && counted[i]) total += meters[i].total_millijoules();
  }
  return total;
}

double RunResult::energy_per_block_mj() const {
  const std::size_t blocks = min_committed();
  return blocks == 0 ? 0.0 : total_energy_mj() / static_cast<double>(blocks);
}

double RunResult::node_energy_mj(NodeId id) const {
  return meters.at(id).total_millijoules();
}

double RunResult::node_energy_per_block_mj(NodeId id) const {
  const std::uint64_t blocks = committed_at(id);
  return blocks == 0 ? 0.0 : node_energy_mj(id) / static_cast<double>(blocks);
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::~Cluster() = default;

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  if (cfg_.n < 2) throw std::invalid_argument("Cluster: n >= 2 required");
  if (cfg_.spares >= cfg_.n) {
    throw std::invalid_argument("Cluster: spares must leave members");
  }
  if (cfg_.spares > 0 && cfg_.protocol == Protocol::kTrustedBaseline) {
    throw std::invalid_argument(
        "Cluster: spares unsupported for the trusted baseline");
  }
  if (cfg_.tracer != nullptr) {
    cfg_.tracer->open_epoch(std::string(protocol_name(cfg_.protocol)) +
                            " n=" + std::to_string(cfg_.n) +
                            " f=" + std::to_string(cfg_.f));
  }
  const bool baseline = cfg_.protocol == Protocol::kTrustedBaseline;
  const std::size_t total = baseline ? cfg_.n + 1 : cfg_.n;
  // Clients are appended after the protocol nodes; Byzantine clients
  // (adversary script) after the honest ones.
  const std::size_t byz_clients = cfg_.adversary.clients.size();
  const std::size_t leaves = cfg_.clients + byz_clients;
  const std::size_t world = total + leaves;

  // Protocol-node topology.
  net::Hypergraph graph(total);
  if (baseline) {
    // Star: every CPS node <-> the control node (id n).
    const NodeId ctl = static_cast<NodeId>(cfg_.n);
    for (NodeId i = 0; i < cfg_.n; ++i) {
      graph.add_edge({i, {ctl}});
      graph.add_edge({ctl, {i}});
    }
  } else if (cfg_.k == 0) {
    graph = net::Hypergraph::full_mesh(total);
  } else {
    graph = net::Hypergraph::kcast_ring(total, cfg_.k);
  }
  // Δ derives from the protocol-node diameter: clients are non-relay
  // leaves and can never shorten replica-to-replica paths.
  const std::size_t diameter = std::max<std::size_t>(1, graph.diameter());
  delta_ = cfg_.hop_delay * static_cast<sim::Duration>(diameter + 1);

  if (leaves > 0) {
    graph = net::Hypergraph::expanded(graph, world);
    const std::size_t attach =
        cfg_.client_attach == 0 ? cfg_.n
                                : std::min(cfg_.client_attach, cfg_.n);
    for (std::size_t ci = 0; ci < cfg_.clients; ++ci) {
      const NodeId cid = static_cast<NodeId>(total + ci);
      for (std::size_t j = 0; j < attach; ++j) {
        // Spread partial attachments round-robin across replicas.
        const NodeId r = static_cast<NodeId>((ci + j) % cfg_.n);
        graph.add_edge({cid, {r}});
        graph.add_edge({r, {cid}});
      }
    }
    // Byzantine clients attach everywhere (a flooding attacker picks the
    // best-connected access it can get).
    for (std::size_t bi = 0; bi < byz_clients; ++bi) {
      const NodeId cid = static_cast<NodeId>(total + cfg_.clients + bi);
      for (NodeId r = 0; r < cfg_.n; ++r) {
        graph.add_edge({cid, {r}});
        graph.add_edge({r, {cid}});
      }
    }
  }

  meters_.resize(world);
  net::TransportConfig tc;
  tc.medium = cfg_.medium;
  tc.hop_bound = cfg_.hop_delay;
  // Clients (honest and Byzantine) are non-relay leaves from the start
  // (one hop computation).
  std::vector<bool> relay;
  if (leaves > 0) {
    relay.assign(world, true);
    for (std::size_t ci = 0; ci < leaves; ++ci) relay[total + ci] = false;
  }
  net_ = std::make_unique<net::Network>(sched_, std::move(graph), tc,
                                        &meters_, std::move(relay));
  if (cfg_.adversarial_delays) {
    net_->set_delay_policy(std::make_unique<net::MaxDelay>(cfg_.hop_delay));
  } else {
    net_->set_delay_policy(std::make_unique<net::UniformDelay>(
        sim::Rng(cfg_.seed ^ 0xde1a7), std::max<sim::Duration>(1, cfg_.hop_delay / 4),
        cfg_.hop_delay));
  }

  // Keys (the directory also covers client ids).
  keyring_ = crypto::Keyring::simulated(cfg_.scheme, world, cfg_.seed);
  // Aggregate share directory: replicas only (clients hold it to verify
  // reply shares and fold acceptance certs, never to sign).
  if (cfg_.cert_scheme == smr::CertScheme::kAggregate) {
    agg_ = crypto::AggKeyring::simulated(total, cfg_.seed);
  }

  correct_.assign(world, true);
  counted_.assign(world, true);
  // Clients are mains-powered workload generators: correct but never
  // part of the replica energy/commit accounting. Byzantine clients are
  // adversarial on top of that.
  for (std::size_t ci = 0; ci < leaves; ++ci) {
    counted_[total + ci] = false;
  }
  // Spares follow the chain but are outside the genesis signer set: they
  // stay out of the commit/energy accounting (min_committed_correct must
  // not wait on a node that cannot vote yet); the SafetyChecker-adjacent
  // final-log cross-check still covers them via RunResult::safety_ok.
  for (std::size_t s = 0; s < cfg_.spares; ++s) {
    counted_[cfg_.n - 1 - s] = false;
  }
  for (std::size_t bi = 0; bi < byz_clients; ++bi) {
    correct_[total + cfg_.clients + bi] = false;
  }
  for (const FaultSpec& fs : cfg_.faults) {
    if (fs.byz.mode != smr::ByzantineMode::kHonest) {
      correct_.at(fs.node) = false;
    }
  }
  // Every replica an adversary script touches consumes the fault budget:
  // withholders and crash/recover nodes behave abnormally themselves,
  // and mark_faulty covers nodes attacked indirectly (e.g. the senders a
  // LinkFault drop rule targets).
  const adversary::AdversarySpec& adv = cfg_.adversary;
  const auto consume_budget = [&](NodeId id) {
    if (id >= total) {
      throw std::invalid_argument("Cluster: adversary names a non-replica");
    }
    correct_.at(id) = false;
  };
  for (const auto& w : adv.withholds) consume_budget(w.node);
  for (const auto& cr : adv.crashes) consume_budget(cr.node);
  for (const auto& ca : adv.checkpoint_attacks) consume_budget(ca.node);
  for (NodeId id : adv.mark_faulty) consume_budget(id);
  if (!adv.link_faults.empty()) {
    injector_ = std::make_unique<adversary::NetAdversary>(
        adv.link_faults, sched_, sim::derive_seed(cfg_.seed, 0xfa01));
    injector_->set_tracer(cfg_.tracer);
    net_->set_fault_injector(injector_.get());
  }

  smr::ReplicaConfig base;
  base.n = total;
  base.f = cfg_.f;
  base.delta = delta_;
  base.batch_size = cfg_.batch_size;
  // With real clients attached, blocks carry client requests only — the
  // "clients always have pending requests" synthetic filler would bury
  // the measured workload.
  base.cmd_bytes = cfg_.clients > 0 ? 0 : cfg_.cmd_bytes;
  base.keyring = keyring_;
  base.cert_scheme = cfg_.cert_scheme;
  base.agg = agg_;
  base.initial_members = total - cfg_.spares;
  base.checkpoint_interval = cfg_.checkpoint_interval;
  base.mempool_capacity = cfg_.mempool_capacity;
  base.client_pending_cap = cfg_.client_pending_cap;
  base.channels = cfg_.channels;
  base.tracer = cfg_.tracer;
  // The run's deterministic profiler: every replica and client reports
  // crypto/codec counts into it; sampled requests get flow events.
  prof_.set_medium(cfg_.medium);
  prof_.set_tracer(cfg_.tracer);
  prof_.set_request_samples(cfg_.trace_requests);
  prof_.set_host_timing(cfg_.host_timing);
  base.profiler = &prof_;
  base.memo = &memo_;
  // Subset submission needs the replica request stream in unicast mode:
  // only the contacted replicas hear a request, so the first to pool it
  // forwards to the leader (otherwise a subset missing the leader would
  // stall until client failover happens to hit it).
  if (cfg_.client_submit.kind ==
          net::DisseminationPolicy::Kind::kTargetedSubset &&
      base.channels[energy::Stream::kRequest].kind ==
          net::DisseminationPolicy::Kind::kDefault) {
    base.channels[energy::Stream::kRequest] =
        net::DisseminationPolicy::routed_unicast();
  }

  auto fault_for = [&](NodeId id) {
    smr::ByzantineConfig byz;
    for (const FaultSpec& fs : cfg_.faults) {
      if (fs.node == id) byz = fs.byz;
    }
    return byz;
  };

  for (NodeId i = 0; i < total; ++i) {
    smr::ReplicaConfig rc = base;
    rc.id = i;
    switch (cfg_.protocol) {
      case Protocol::kEesmr: {
        replicas_.push_back(std::make_unique<protocol::EesmrReplica>(
            *net_, rc, cfg_.eesmr, fault_for(i), &meters_[i]));
        break;
      }
      case Protocol::kSyncHotStuff:
      case Protocol::kOptSync: {
        baselines::SyncHsOptions so = cfg_.synchs;
        so.optimistic_fast_path = cfg_.protocol == Protocol::kOptSync;
        replicas_.push_back(std::make_unique<baselines::SyncHsReplica>(
            *net_, rc, so, fault_for(i), &meters_[i]));
        break;
      }
      case Protocol::kPbft: {
        replicas_.push_back(std::make_unique<baselines::PbftReplica>(
            *net_, rc, fault_for(i), &meters_[i]));
        break;
      }
      case Protocol::kMinBft: {
        replicas_.push_back(std::make_unique<baselines::MinBftReplica>(
            *net_, rc, fault_for(i), &meters_[i]));
        break;
      }
      case Protocol::kTrustedBaseline: {
        if (i == cfg_.n) {
          // The control node's energy is not counted (mains-powered).
          counted_[i] = false;
          replicas_.push_back(std::make_unique<baselines::TrustedController>(
              *net_, rc, &meters_[i]));
        } else {
          replicas_.push_back(
              std::make_unique<baselines::TrustedBaselineReplica>(
                  *net_, rc, static_cast<NodeId>(cfg_.n), &meters_[i]));
        }
        break;
      }
    }
  }

  // Byzantine per-stream withholding: one outbound filter per scripted
  // replica (its rules evaluated against every outgoing message).
  {
    std::map<NodeId, std::vector<adversary::AdversarySpec::Withhold>> by_node;
    for (const auto& w : adv.withholds) by_node[w.node].push_back(w);
    for (auto& [node, rules] : by_node) {
      withhold_filters_.push_back(std::make_unique<adversary::WithholdFilter>(
          std::move(rules), sched_,
          sim::derive_seed(cfg_.seed, 0x3170000ull + node)));
      replicas_.at(node)->set_outbound_policy(withhold_filters_.back().get());
    }
  }
  // Byzantine checkpoint attacks: replica-level flags (forged broadcast
  // digests, withheld snapshot payloads).
  for (const auto& ca : adv.checkpoint_attacks) {
    replicas_.at(ca.node)->set_forge_checkpoint_digest(ca.forge_digest);
    replicas_.at(ca.node)->set_withhold_snapshots(ca.withhold_snapshots);
  }
  // Every faulted replica (Byzantine protocol mode, withhold filter,
  // crash schedule, or network-level script against it) may legitimately
  // commit a private fork nobody else saw — e.g. an equivocating or
  // withholding leader self-accepts proposals the cluster moved past.
  // It is excluded from correctness accounting, so it tolerates the
  // fork; honest replicas keep the hard conflicting-commit assertion.
  for (NodeId i = 0; i < total; ++i) {
    if (!correct_[i]) replicas_[i]->set_tolerate_fork(true);
  }

  // Execution apps + client nodes. Checkpointing snapshots the app, so
  // replicas get one whenever checkpoints are on, clients or not.
  if (cfg_.clients > 0 || cfg_.checkpoint_interval > 0) {
    for (auto& r : replicas_) {
      apps_.push_back(std::make_unique<smr::KvStore>());
      r->attach_app(apps_.back().get());
    }
  }
  if (cfg_.clients > 0) {
    for (std::size_t ci = 0; ci < cfg_.clients; ++ci) {
      client::ClientConfig cc;
      cc.id = static_cast<NodeId>(total + ci);
      cc.n = total;
      cc.f = cfg_.f;
      cc.keyring = keyring_;
      cc.cert_scheme = cfg_.cert_scheme;
      cc.agg = agg_;
      cc.workload = cfg_.workload;
      cc.seed = cfg_.seed + 7919 * (ci + 1);
      cc.retry_after = cfg_.client_retry;
      cc.submit = cfg_.client_submit;
      cc.profiler = &prof_;
      cc.tracer = cfg_.tracer;
      if (cc.submit.kind ==
              net::DisseminationPolicy::Kind::kTargetedSubset &&
          cc.submit.timeout <= 0) {
        // Submission round trip: request in, wait for the next round's
        // proposal, the 4Δ equivocation-free commit wait, reply out —
        // plus the client access hops. 10Δ covers it with slack, so a
        // failover indicates an unresponsive target rather than
        // ordinary ordering latency.
        cc.submit.timeout = 10 * (delta_ + 2 * cfg_.hop_delay);
      }
      clients_.push_back(
          std::make_unique<client::Client>(*net_, cc, &meters_[cc.id]));
    }
  }
  for (std::size_t bi = 0; bi < byz_clients; ++bi) {
    const NodeId cid = static_cast<NodeId>(total + cfg_.clients + bi);
    byz_clients_.push_back(std::make_unique<adversary::ByzantineClient>(
        *net_, cid, keyring_, adv.clients[bi],
        sim::derive_seed(cfg_.seed, 0xb120000ull + bi), &meters_[cid]));
  }

  // Late joiners: off the air (no reception, relay or energy) until
  // their delay elapses; started then (see start()).
  late_.assign(world, false);
  for (const ClusterConfig::LateStart& ls : cfg_.late_starts) {
    if (ls.node >= total) {
      throw std::invalid_argument("Cluster: late_starts names a non-replica");
    }
    late_.at(ls.node) = true;
    net_->set_node_online(ls.node, false);
    replicas_.at(ls.node)->set_online(false);
  }
}

protocol::EesmrReplica& Cluster::eesmr(NodeId id) {
  auto* r = dynamic_cast<protocol::EesmrReplica*>(replicas_.at(id).get());
  if (r == nullptr) throw std::logic_error("Cluster: not an EESMR replica");
  return *r;
}

void Cluster::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!late_[i]) replicas_[i]->start();
  }
  for (const ClusterConfig::LateStart& ls : cfg_.late_starts) {
    sched_.after(ls.delay, "control", [this, node = ls.node] {
      net_->set_node_online(node, true);
      replicas_[node]->set_online(true);
      replicas_[node]->start();
    });
  }
  // Crash/recover schedules (the late_starts generalization): the node
  // runs normally, drops off the air at crash_at, and — when scripted —
  // comes back at recover_at and catches up by chain sync or state
  // transfer.
  for (const adversary::AdversarySpec::CrashRecover& cr :
       cfg_.adversary.crashes) {
    sched_.at(std::max(cr.crash_at, sched_.now()), "control",
              [this, node = cr.node] {
      net_->set_node_online(node, false);
      replicas_[node]->set_online(false);
    });
    if (cr.recover_at > 0) {
      sched_.at(std::max(cr.recover_at, sched_.now()), "control",
                [this, node = cr.node] {
        net_->set_node_online(node, true);
        replicas_[node]->set_online(true);
      });
    }
  }
  // Membership reconfiguration schedule: at each event time the full
  // next-generation policy enters every ONLINE replica's mempool as a
  // tagged command; the leader proposes it like any request and the
  // flip happens at that block's commit boundary on every replica.
  {
    std::uint64_t next_gen = 0;
    for (ClusterConfig::MembershipEvent ev : cfg_.membership_events) {
      if (ev.policy.generation == 0) {
        ev.policy.generation = next_gen + 1;
      }
      next_gen = ev.policy.generation;
      sched_.at(std::max<sim::SimTime>(ev.at, sched_.now()), "control",
                [this, p = ev.policy] {
        const Bytes cmd = p.encode();
        for (auto& r : replicas_) {
          if (r->online()) r->mempool().submit({cmd});
        }
        if (cfg_.tracer != nullptr) {
          cfg_.tracer->instant(sched_.now(), -1, "membership",
                               "policy_injected",
                               {{"generation", exp::Json(p.generation)},
                                {"signers", exp::Json(p.signers.size())}});
        }
      });
    }
  }
  for (auto& c : clients_) c->start();
  for (auto& bc : byz_clients_) bc->start();
  // Adaptive chase-the-leader schedule: first victim at from_time (the
  // tick itself re-arms every period).
  if (cfg_.adversary.chase_leader.period > 0) {
    sched_.at(std::max(cfg_.adversary.chase_leader.from_time, sched_.now()),
              "adversary", [this] { chase_leader_tick(); });
  }
}

void Cluster::chase_leader_tick() {
  const adversary::AdversarySpec::ChaseLeader& cl = cfg_.adversary.chase_leader;
  const auto restore = [this] {
    if (chase_victim_ == kNoNode) return;
    net_->set_node_online(chase_victim_, true);
    replicas_[chase_victim_]->set_online(true);
    chase_victim_ = kNoNode;
  };
  if (cl.until_time != 0 && sched_.now() >= cl.until_time) {
    restore();
    return;
  }
  restore();
  // The leader the cluster is currently converging on: the highest view
  // any online replica reached, mapped through the shared rotation.
  std::uint64_t view = 0;
  for (const auto& r : replicas_) {
    if (r->online()) view = std::max(view, r->current_view());
  }
  const NodeId victim = static_cast<NodeId>(view % replicas_.size());
  net_->set_node_online(victim, false);
  replicas_[victim]->set_online(false);
  chase_victim_ = victim;
  if (cfg_.tracer != nullptr) {
    cfg_.tracer->instant(sched_.now(), static_cast<std::int64_t>(victim),
                         "fault", "chase_leader",
                         {{"view", exp::Json(view)}});
  }
  sched_.after(cl.period, "adversary", [this] { chase_leader_tick(); });
}

std::size_t Cluster::min_committed_correct() const {
  std::size_t best = SIZE_MAX;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (correct_[i] && counted_[i]) {
      best = std::min<std::size_t>(best, replicas_[i]->committed_height());
    }
  }
  return best == SIZE_MAX ? 0 : best;
}

void Cluster::tick_checkers() {
  std::uint64_t min_lwm = UINT64_MAX;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!correct_[i] || !counted_[i]) continue;
    safety_.observe(static_cast<NodeId>(i), replicas_[i]->log());
    min_lwm = std::min(min_lwm, replicas_[i]->checkpoints().low_water_mark());
  }
  if (min_lwm != UINT64_MAX && min_lwm > 0) safety_.prune_below(min_lwm);
  liveness_.sample(sched_.now(), min_committed_correct(), load_pending());
}

bool Cluster::load_pending() const {
  // Without a client layer the mempool's synthetic filler keeps every
  // block full — load is pending by construction, keeping the old
  // fixed-window stall semantics for protocol-only runs.
  if (clients_.empty() && byz_clients_.empty()) return true;
  for (const auto& c : clients_) {
    if (c->has_pending_load()) return true;
  }
  // A Byzantine client still inside its flood budget keeps the checker
  // armed: attack-conformance stall verdicts must cover the whole flood.
  for (const auto& bc : byz_clients_) {
    if (bc->budget_left()) return true;
  }
  return false;
}

RunResult Cluster::step_until(sim::Duration max_time,
                              const std::function<bool()>& done) {
  start();
  const sim::SimTime deadline = sched_.now() + max_time;
  tick_checkers();
  while (sched_.now() < deadline && !done()) {
    sched_.run_until(std::min<sim::SimTime>(
        deadline, sched_.now() + cfg_.hop_delay * 4));
    tick_checkers();
  }
  return snapshot();
}

RunResult Cluster::run_until_commits(std::size_t target_blocks,
                                     sim::Duration max_time) {
  return step_until(max_time, [&] {
    return min_committed_correct() >= target_blocks || sched_.empty();
  });
}

RunResult Cluster::run_until_accepted(std::uint64_t target_requests,
                                      sim::Duration max_time) {
  return step_until(max_time, [&] {
    std::uint64_t accepted = 0;
    for (const auto& c : clients_) accepted += c->accepted();
    return accepted >= target_requests || sched_.empty();
  });
}

RunResult Cluster::run_for(sim::Duration time) {
  return step_until(time, [] { return false; });
}

RunResult Cluster::snapshot() const {
  RunResult out;
  out.meters = meters_;
  out.correct = correct_;
  out.counted = counted_;
  logs_.resize(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    sync_log(logs_[i], replicas_[i]->log());
    out.logs.push_back(logs_[i]);
    out.committed_blocks.push_back(replicas_[i]->committed_height());
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (correct_[i] && counted_[i]) {
      out.view_changes =
          std::max<std::uint64_t>(out.view_changes,
                                  replicas_[i]->current_view() - 1);
    }
  }
  for (const auto& rp : replicas_) {
    const smr::ReplicaBase& r = *rp;
    const checkpoint::CheckpointManager& ckpt = r.checkpoints();
    ReplicaFootprint fp;
    fp.retained_log = r.log().size();
    fp.store_blocks = r.store().size();
    fp.executed_entries = r.execution().size();
    fp.mempool_pending = r.mempool().pending();
    fp.mempool_committed_keys = r.mempool().committed_keys();
    fp.flood_dedup_tail = r.flood_dedup_entries();
    fp.committed_blocks = r.committed_height();
    fp.low_water_mark = ckpt.low_water_mark();
    fp.checkpoints_taken = ckpt.taken();
    fp.stable_height = ckpt.stable_height();
    fp.state_transfers = ckpt.state_transfers();
    out.footprints.push_back(fp);
    out.requests_dropped += r.mempool().dropped();
    out.requests_rate_limited += r.intake().cap_drops();
    out.requests_forwarded += r.intake().forwarded();
    out.state_transfers += ckpt.state_transfers();
    out.max_recovery_latency =
        std::max(out.max_recovery_latency, ckpt.last_recovery_time());
  }
  out.transmissions = net_->transmissions();
  out.bytes_transmitted = net_->bytes_transmitted();
  out.end_time = sched_.now();
  for (const auto& c : clients_) {
    out.latency.merge(c->latencies());
    out.requests_submitted += c->submitted();
    out.requests_accepted += c->accepted();
    out.request_retransmissions += c->retransmissions();
    out.request_failovers += c->failovers();
    out.request_hints_applied += c->leader_hints_applied();
    out.acceptance_certs += c->acceptance_certs_folded();
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!correct_[i] || !counted_[i]) continue;
    out.membership_changes = std::max<std::uint64_t>(
        out.membership_changes, replicas_[i]->membership().generation());
    out.membership_generation = std::max<std::uint64_t>(
        out.membership_generation, replicas_[i]->membership().generation());
  }
  if (cfg_.protocol == Protocol::kTrustedBaseline) {
    const auto* ctl = dynamic_cast<const baselines::TrustedController*>(
        replicas_.at(cfg_.n).get());
    if (ctl != nullptr) {
      out.controller_dedup_saved = ctl->dedup_orderings_saved();
      out.controller_dedup_bytes_saved = ctl->dedup_bytes_saved();
    }
  }
  // Adversary verdicts & attack accounting (the checkers run on every
  // cluster; the fault counters only move when a spec scripted faults).
  out.safety_violations = safety_.violations();
  out.max_commit_stall = liveness_.max_stall(sched_.now());
  out.liveness_stall_bound = cfg_.adversary.stall_bound;
  if (injector_ != nullptr) {
    out.faults_dropped = injector_->dropped();
    out.faults_duplicated = injector_->duplicated();
    out.faults_reordered = injector_->reordered();
  }
  for (const auto& wf : withhold_filters_) {
    out.msgs_withheld += wf->withheld();
  }
  for (const auto& bc : byz_clients_) out.byz_requests_sent += bc->sent();
  // Profiler snapshot: replica/client counters accumulated in prof_,
  // plus the scheduler's per-kind fired-event counts gathered here (the
  // scheduler is the one component that does not hold a profiler ref).
  out.prof = prof_.snapshot();
  out.prof.sched_events = sched_.fired_by_kind();
  // Verification-cache / zero-copy counters: gathered here like
  // sched_events (the memo and the network do not hold profiler refs).
  {
    prof::Snapshot::Pipeline pl;
    pl.join_hits = memo_.hits();
    pl.wasted = memo_.wasted();
    pl.bytes_copy_saved = net_->bytes_copy_saved();
    for (const auto& r : replicas_) {
      pl.sig_cache_hits += r->crypto().certs().hits();
    }
    out.prof.pipeline = pl;
  }
  return out;
}

}  // namespace eesmr::harness
