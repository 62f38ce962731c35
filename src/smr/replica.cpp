#include "src/smr/replica.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "src/common/serde.hpp"
#include "src/crypto/sha256.hpp"

namespace eesmr::smr {

namespace {
/// Cap on blocks per SyncResponse (a Byzantine peer can request often;
/// the per-response size must stay bounded).
constexpr std::size_t kMaxSyncBlocks = 64;

/// Verified-signature cache key: digest of (author, preimage, sig), so
/// an entry costs 32 bytes regardless of payload size. Like
/// RequestIntake's verified-bytes cache, the digest is a data-structure
/// detail (a real node would index by pointer) and is not charged.
crypto::Sha256Digest sig_digest(NodeId author, BytesView preimage,
                                BytesView sig) {
  Writer w;
  w.u32(author);
  w.bytes(preimage);
  w.raw(sig);
  return crypto::Sha256::hash(w.buffer());
}
}  // namespace

ReplicaBase::ReplicaBase(net::Network& net, ReplicaConfig cfg,
                         energy::Meter* meter)
    : sched_(net.scheduler()),
      router_(net, cfg.id, this),
      cfg_(std::move(cfg)),
      meter_(meter),
      mempool_(cfg_.cmd_bytes, cfg_.mempool_capacity),
      membership_(cfg_.initial_members != 0 ? cfg_.initial_members : cfg_.n),
      committed_tip_(genesis_hash()),
      ckpt_(cfg_.checkpoint_interval, cfg_.f + 1),
      st_timer_(sched_) {
  if (!cfg_.keyring) {
    throw std::invalid_argument("ReplicaBase: keyring required");
  }
  if (cfg_.keyring->size() < cfg_.n) {
    throw std::invalid_argument("ReplicaBase: keyring too small");
  }
  if (cfg_.cert_scheme == CertScheme::kAggregate &&
      (cfg_.agg == nullptr || cfg_.agg->size() < cfg_.n)) {
    throw std::invalid_argument("ReplicaBase: aggregate scheme needs agg keys");
  }
  // Open one typed channel per stream. The unicast-style policies
  // address the other protocol nodes.
  std::vector<NodeId> peers;
  peers.reserve(cfg_.n - 1);
  for (NodeId i = 0; i < cfg_.n; ++i) {
    if (i != cfg_.id) peers.push_back(i);
  }
  for (std::size_t s = 0; s < energy::kNumStreams; ++s) {
    channels_[s] = std::make_unique<net::Channel>(
        router_, static_cast<energy::Stream>(s),
        cfg_.channels.table[s], peers);
  }
}

void ReplicaBase::charge(energy::Category cat, double mj) {
  if (meter_ != nullptr) meter_->charge(cat, mj);
}

void ReplicaBase::trace_instant(const char* cat, std::string name,
                                obs::Tracer::Args args) {
  if (cfg_.tracer != nullptr) {
    cfg_.tracer->instant(sched_.now(), cfg_.id, cat, std::move(name),
                         std::move(args));
  }
}

void ReplicaBase::trace_vote(const Block& b) {
  if (!tracing()) return;
  trace_begin("block", "block", b.height,
              {{"round", exp::Json(b.round)}, {"view", exp::Json(b.view)}});
  trace_instant("commit", "vote", {{"height", exp::Json(b.height)}});
}

void ReplicaBase::trace_begin(const char* cat, std::string name,
                              std::uint64_t id, obs::Tracer::Args args) {
  if (cfg_.tracer != nullptr) {
    cfg_.tracer->async_begin(sched_.now(), cfg_.id, cat, std::move(name), id,
                             std::move(args));
  }
}

void ReplicaBase::trace_end(const char* cat, std::string name,
                            std::uint64_t id, obs::Tracer::Args args) {
  if (cfg_.tracer != nullptr) {
    cfg_.tracer->async_end(sched_.now(), cfg_.id, cat, std::move(name), id,
                           std::move(args));
  }
}

void ReplicaBase::prof_crypto(const char* op, const char* site) {
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_crypto("replica", op, site);
  }
}

void ReplicaBase::prof_flow(const char* name, NodeId client,
                            std::uint64_t req_id) {
  prof::Profiler* p = cfg_.profiler;
  if (p == nullptr || cfg_.tracer == nullptr || !p->tracing_requests()) return;
  if (!p->is_sampled(client, req_id)) return;
  const sim::SimTime ts = sched_.now();
  // The 1us complete slice anchors the flow arrow (chrome://tracing only
  // draws flow bindings into enclosing slices).
  cfg_.tracer->complete(ts, cfg_.id, "request", name, 1,
                        {{"client", exp::Json(client)},
                         {"req_id", exp::Json(req_id)}});
  cfg_.tracer->flow_step(ts, cfg_.id, "request", name,
                         prof::Profiler::flow_id(client, req_id));
}

void ReplicaBase::prof_flow_block(const char* name, const Block& b,
                                  energy::Stream s, std::size_t frame_bytes) {
  prof::Profiler* p = cfg_.profiler;
  if (p == nullptr || !p->tracing_requests() || b.cmds.empty()) return;
  auto& at_height = prof_block_cache_[b.height];
  auto cached = at_height.find(b.hash());
  if (cached == at_height.end()) {
    std::vector<std::pair<NodeId, std::uint64_t>> sampled;
    for (const Command& cmd : b.cmds) {
      const auto req = ClientRequest::decode(cmd.data);
      if (req.has_value() && p->is_sampled(req->client, req->req_id)) {
        sampled.push_back({req->client, req->req_id});
      }
    }
    cached = at_height.emplace(b.hash(), std::move(sampled)).first;
  }
  for (const auto& [client, req_id] : cached->second) {
    prof_flow(name, client, req_id);
    if (frame_bytes > 0) {
      p->attribute(client, req_id, s, frame_bytes, 1, b.cmds.size());
    }
  }
}

Msg ReplicaBase::make_msg(MsgType type, std::uint64_t view,
                          std::uint64_t round, Bytes data) {
  Msg m = unsigned_msg(type, round, std::move(data));
  m.view = view;
  // Vote-class signatures are 48-byte aggregate-scheme shares, so the
  // certificates they fold into stay O(1) on the wire.
  m.sig = sign_preimage(m.preimage(),
                        aggregate_certs() && certificate_bound(type),
                        crypto_site(type));
  return m;
}

Bytes ReplicaBase::sign_preimage(BytesView preimage, bool share,
                                 const char* site, bool metered) {
  Bytes sig = share ? cfg_.agg->share(cfg_.id, preimage)
                    : cfg_.keyring->signer(cfg_.id).sign(preimage);
  if (metered) {
    charge(energy::Category::kSign,
           share ? energy::agg_sign_energy_mj()
                 : energy::sign_energy_mj(cfg_.keyring->scheme()));
    prof_crypto("sign", site);
  }
  return sig;
}

bool ReplicaBase::recent_signer(NodeId id) const {
  // The current generation, then the bounded window of earlier ones:
  // certificates and votes formed just before a flip are still in flight.
  for (std::uint64_t g = membership_.generation();; --g) {
    if (membership_.is_signer(id, g)) return true;
    if (g == 0 || !membership_.known(g - 1)) return false;
  }
}

bool ReplicaBase::verify_msg(const Msg& m) {
  if (m.author >= cfg_.n) return false;
  // Post-reconfiguration gate (free, before any energy is charged): a
  // departed member's vote-class traffic no longer counts.
  if (membership_enforced() && certificate_bound(m.type) &&
      !recent_signer(m.author)) {
    return false;
  }
  const Bytes preimage = m.preimage();
  const bool ok =
      verify_metered(m.author, preimage, m.sig,
                     aggregate_certs() && certificate_bound(m.type),
                     crypto_site(m.type));
  if (ok && certificate_bound(m.type)) {
    sig_verified_.emplace(sig_digest(m.author, preimage, m.sig),
                          committed_height_);
  }
  return ok;
}

bool ReplicaBase::memo_verify(NodeId author, BytesView preimage,
                              BytesView sig, bool share) {
  const auto verify = [&] {
    return share ? cfg_.agg->verify_share(author, preimage, sig)
                 : cfg_.keyring->verify(author, preimage, sig);
  };
  return cfg_.memo != nullptr ? cfg_.memo->check(author, preimage, sig, verify)
                              : verify();
}

bool ReplicaBase::verify_metered(NodeId author, BytesView preimage,
                                 BytesView sig, bool share, const char* site) {
  // A share check is priced as a one-signer aggregate verification.
  charge(energy::Category::kVerify,
         share ? energy::agg_verify_energy_mj(1)
               : energy::verify_energy_mj(cfg_.keyring->scheme()));
  prof_crypto("verify", site);
  return memo_verify(author, preimage, sig, share);
}

bool ReplicaBase::verify_individual_cert(
    const Bytes& preimage, const std::vector<std::pair<NodeId, Bytes>>& sigs,
    std::size_t quorum_size, const char* site) {
  // Accounting first, before any validity check can return: one metered
  // verification per contained signature — minus the signatures this
  // node already verified individually when the votes arrived, which
  // the verified-signature cache answers for free at tally time.
  std::vector<std::size_t> uncached;
  uncached.reserve(sigs.size());
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (sig_verified_.count(sig_digest(sigs[i].first, preimage,
                                       sigs[i].second)) > 0) {
      ++sig_cache_hits_;
      continue;
    }
    charge(energy::Category::kVerify,
           energy::verify_energy_mj(cfg_.keyring->scheme()));
    prof_crypto("verify", site);
    uncached.push_back(i);
  }
  // Validity: count, replica and distinct authors, then the
  // not-yet-verified signatures.
  if (sigs.size() < quorum_size) return false;
  std::set<NodeId> authors;
  for (const auto& [author, sig] : sigs) {
    if (author >= cfg_.n) return false;
    if (!authors.insert(author).second) return false;  // duplicate author
  }
  for (std::size_t i : uncached) {
    if (!memo_verify(sigs[i].first, preimage, sigs[i].second)) return false;
  }
  return true;
}

crypto::Sha256Digest ReplicaBase::agg_cert_digest(
    BytesView preimage, const crypto::SignerBitset& signers,
    BytesView agg_sig) {
  Writer w;
  w.bytes(preimage);
  signers.encode_into(w);
  w.raw(agg_sig);
  return crypto::Sha256::hash(w.buffer());
}

std::uint64_t ReplicaBase::generation_for_signers(
    const std::vector<NodeId>& signer_ids) const {
  for (std::uint64_t g = membership_.generation();; --g) {
    if (membership_.known(g) &&
        std::all_of(signer_ids.begin(), signer_ids.end(),
                    [&](NodeId id) { return membership_.is_signer(id, g); })) {
      return g;
    }
    if (g == 0) return membership_.generation();
  }
}

bool ReplicaBase::verify_agg_cert(BytesView preimage,
                                  const crypto::SignerBitset& signers,
                                  std::uint64_t gen, BytesView agg_sig,
                                  std::size_t quorum_size, const char* site) {
  if (cfg_.agg == nullptr) return false;
  if (signers.size() > cfg_.n) return false;
  if (signers.count() < quorum_size) return false;
  // Signers must all be members of the cert's tagged generation, and the
  // generation must still be inside the policy-history window.
  if (!membership_.known(gen)) return false;
  for (NodeId id = 0; id < signers.size(); ++id) {
    if (signers.test(id) && !membership_.is_signer(id, gen)) return false;
  }
  // Whole-certificate cache: an aggregate is one pairing-based check, so
  // the cache keys the (preimage, signers, aggregate) triple as a unit.
  const auto digest = agg_cert_digest(preimage, signers, agg_sig);
  if (sig_verified_.count(digest) > 0) {
    ++sig_cache_hits_;
    return true;
  }
  charge(energy::Category::kVerify,
         energy::agg_verify_energy_mj(signers.count()));
  prof_crypto("verify", site);
  if (!cfg_.agg->verify_aggregate(signers, preimage, agg_sig)) return false;
  sig_verified_.emplace(digest, committed_height_);
  return true;
}

QuorumCert ReplicaBase::make_cert(const std::vector<Msg>& msgs) {
  QuorumCert qc = QuorumCert::combine(msgs);
  if (aggregate_certs()) {
    charge(energy::Category::kSign,
           energy::agg_combine_energy_mj(qc.sigs.size()));
    qc = qc.to_aggregate(cfg_.n, generation_for_signers(qc.signer_list()));
  }
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_codec("cert", "encode", stream_of(qc.type),
                               qc.encode().size());
  }
  return qc;
}

bool ReplicaBase::verify_qc(const QuorumCert& qc, std::size_t quorum_size) {
  if (qc.scheme == CertScheme::kAggregate) {
    return aggregate_certs() &&
           verify_agg_cert(qc.preimage(), qc.signers, qc.gen, qc.agg_sig,
                           quorum_size, "vote");
  }
  // Under the aggregate scheme votes carry shares, not directory
  // signatures — an individual-form cert cannot be honest.
  return !aggregate_certs() &&
         verify_individual_cert(qc.preimage(), qc.sigs, quorum_size, "vote");
}

bool ReplicaBase::verify_checkpoint_cert(
    const checkpoint::CheckpointCert& cert) {
  if (cert.scheme == CertScheme::kAggregate) {
    // Checkpoint quorum is always f+1 (one correct attester suffices).
    return aggregate_certs() &&
           verify_agg_cert(cert.id.preimage(), cert.signers, cert.gen,
                           cert.agg_sig, cfg_.f + 1, "checkpoint");
  }
  // Checkpoint quorum is always f+1 (one correct attester suffices),
  // independent of the protocol's vote quorum (cfg_.quorum).
  return !aggregate_certs() &&
         verify_individual_cert(cert.id.preimage(), cert.sigs, cfg_.f + 1,
                                "checkpoint");
}

BlockHash ReplicaBase::hash_block(const Block& b) {
  charge(energy::Category::kHash, energy::hash_energy_mj(b.encoded_size()));
  prof_crypto("hash", "block");
  return b.hash();
}

const Bytes& ReplicaBase::encode_wire(const Msg& m) {
  wire_writer_.clear();  // reuse the allocation across encodes
  m.encode_into(wire_writer_);
  const Bytes& wire = wire_writer_.buffer();
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_codec("replica", "encode", stream_of(m.type),
                               wire.size());
  }
  return wire;
}

void ReplicaBase::broadcast(const Msg& m) {
  if (outbound_ != nullptr && !outbound_->allow(m, kNoNode)) return;
  channel(stream_of(m.type)).disseminate(encode_wire(m));
}

void ReplicaBase::send(NodeId to, const Msg& m) {
  if (outbound_ != nullptr && !outbound_->allow(m, to)) return;
  channel(stream_of(m.type)).send_to(to, encode_wire(m));
}

bool ReplicaBase::integrate_block(const Block& block, NodeId origin) {
  if (store_.add(block)) return true;
  // Parent held, so the height does not follow it: malformed, dropped.
  if (store_.contains(block.parent)) return false;
  store_.add_orphan(block);
  // Request the missing ancestry once per parent hash.
  if (sync_requested_.insert(block.parent).second) {
    if (sync_started_ == 0) sync_started_ = sched_.now();
    send(origin, make_msg(MsgType::kSyncRequest, r_cur_, block.parent));
  }
  return false;
}

void ReplicaBase::on_chain_connected(const Block&) {}

void ReplicaBase::connect_orphans() {
  for (const Block& connected : store_.adopt_orphans()) {
    std::vector<Msg> retry;
    retry.swap(retry_);
    for (const Msg& m : retry) handle(m.author, m);
    on_chain_connected(connected);
  }
}

void ReplicaBase::buffer_future(const Msg& msg) {
  if (future_.size() > 4096) return;  // bound Byzantine memory pressure
  future_.push_back(msg);
}

void ReplicaBase::drain_buffered() {
  std::vector<Msg> retry;
  retry.swap(retry_);
  std::vector<Msg> pending;
  pending.swap(future_);
  for (const Msg& m : retry) handle(m.author, m);
  for (const Msg& m : pending) handle(m.author, m);
}

void ReplicaBase::commit_chain(const BlockHash& h) {
  const prof::Scope scope(cfg_.profiler, "replica.commit_chain");
  if (committed_.count(h) > 0 || h == genesis_hash()) return;
  const Block* target = store_.get(h);
  if (target == nullptr) {
    // After checkpoint truncation an unknown hash can name a block at or
    // below the low-water mark — already final (f+1 replicas attested the
    // state above it), so a re-commit is a no-op rather than a safety bug.
    if (ckpt_.low_water_mark() > 0) return;
    throw std::logic_error("commit_chain: unknown block");
  }
  // Below the stable checkpoint.
  if (target->height <= ckpt_.low_water_mark()) return;
  if (!store_.extends(h, committed_tip_)) {
    if (store_.extends(committed_tip_, h)) return;  // already covered
    // A scripted-faulty node's private fork (see set_tolerate_fork):
    // stop committing rather than crash the simulation.
    if (tolerate_fork_) return;
    throw std::logic_error("commit_chain: conflicting commit (safety bug)");
  }
  std::vector<MembershipPolicy> pending_policies;
  for (const Block& b : store_.chain_between(h, committed_tip_)) {
    log_.push_back(b);
    committed_.insert(b.hash());
    mempool_.remove_committed(b);
    for (const Command& cmd : b.cmds) {
      // Committed membership-policy command: collect it; the active
      // signer set flips at this block's commit boundary (below), after
      // every command in the block has executed.
      try {
        if (const auto pol = MembershipPolicy::decode_command(cmd.data)) {
          pending_policies.push_back(*pol);
          continue;
        }
      } catch (const SerdeError&) {
        continue;  // tagged but malformed: a deterministic no-op
      }
      const auto req = ClientRequest::decode(cmd.data);
      if (!req.has_value()) {
        if (app_ != nullptr) app_->apply(cmd);
        continue;
      }
      // Tagged request: execute the unwrapped op exactly once, then
      // acknowledge the client (§3's f+1-identical-results rule is
      // applied on the client side). A duplicate copy (re-proposed
      // across a view change, or the trusted baseline's
      // one-copy-per-CPS-node ordering) costs no signature verification
      // and sends NO reply: the first execution already acknowledged the
      // client, and a lost reply is recovered by handle_request's
      // retransmit replay. Replying per copy would multiply signed
      // replies and distort the per-request energy comparison.
      if (exec_.find(req->client, req->req_id) != nullptr) continue;
      // Re-verify the embedded client signature: a Byzantine leader can
      // propose arbitrary bytes, but it cannot forge a request the client
      // never signed. Invalid tagged commands become deterministic no-ops
      // on every correct replica. The free id-range check runs before any
      // energy is charged, and a verified-bytes cache hit (these exact
      // bytes passed the pool-time check) replaces the re-check.
      bool valid =
          req->client >= cfg_.n && req->client < cfg_.keyring->size();
      if (valid && !intake_.take_verified(cmd.data)) {
        valid = verify_metered(req->client, req->preimage(), req->sig,
                               /*share=*/false, "request");
      }
      if (!valid) continue;
      Bytes result;
      if (app_ != nullptr) result = app_->apply(Command{req->op});
      const Bytes& stored =
          exec_.record(req->client, req->req_id, std::move(result), b.height);
      prof_flow("commit", req->client, req->req_id);
      reply_to_client(*req, stored);
    }
    exec_.add_commands(b.cmds.size());
    // Commit boundary: apply the block's policy commands in order. Only
    // the direct successor generation applies (duplicates and stale
    // re-proposals are no-ops), it must keep a quorum's worth of
    // replica-range signers, and every correct replica flips here — the
    // same deterministic log position.
    for (const MembershipPolicy& p : pending_policies) {
      const bool in_range =
          std::all_of(p.signers.begin(), p.signers.end(),
                      [&](const PolicyEntry& e) { return e.node < cfg_.n; });
      if (p.signers.size() < quorum() || !in_range || !membership_.apply(p)) {
        continue;
      }
      ++membership_changes_;
      trace_instant("membership", "policy_applied",
                    {{"generation", exp::Json(p.generation)},
                     {"signers", exp::Json(p.signers.size())}});
      on_membership_change(p);
    }
    pending_policies.clear();
    if (tracing()) {
      trace_instant("commit", "commit",
                    {{"height", exp::Json(b.height)},
                     {"cmds", exp::Json(b.cmds.size())}});
      trace_end("block", "block", b.height);
    }
    on_commit(b);
    maybe_checkpoint(b);
  }
  committed_tip_ = h;
  committed_height_ = target->height;
  // A checkpoint that stabilized while we were still catching up to its
  // height becomes actionable once our commits pass it.
  settle_low_water(committed_height_);
}

void ReplicaBase::on_commit(const Block&) {}
void ReplicaBase::on_low_water(const Block&) {}
void ReplicaBase::on_state_transfer(const Block&) {}
void ReplicaBase::on_restart() {}
void ReplicaBase::on_membership_change(const MembershipPolicy&) {}

// ---------------------------------------------------------------------------
// Checkpointing (src/checkpoint/): snapshot, stabilize, truncate
// ---------------------------------------------------------------------------

void ReplicaBase::maybe_checkpoint(const Block& b) {
  if (!ckpt_.due(exec_.executed_cmds(), b.height)) return;

  // Reply-cache GC at a log-deterministic point, so every commit-time
  // dedup decision is independent of message timing.
  exec_.gc_at_checkpoint(ckpt_.last_height());
  checkpoint::SnapshotPayload payload = exec_.snapshot();
  if (app_ != nullptr) payload.app_snapshot = app_->snapshot();
  Bytes bytes = payload.encode();
  charge(energy::Category::kHash, energy::hash_energy_mj(bytes.size()));
  prof_crypto("hash", "checkpoint");

  checkpoint::CheckpointId id;
  id.height = b.height;
  id.block = b.hash();
  id.digest = crypto::sha256(bytes);

  trace_instant("checkpoint", "checkpoint_taken",
                {{"height", exp::Json(b.height)}});

  checkpoint::CheckpointMsg cp;
  cp.id = id;
  // Byzantine digest forgery: broadcast an attestation over a corrupted
  // digest while the local tally keeps the honest one (the attacker
  // stays internally consistent). f+1 matching attestations are needed
  // for stability, so honest nodes can never stabilize the forgery.
  if (forge_ckpt_) cp.id.digest[0] ^= 0xFF;
  cp.sig = sign_preimage(cp.id.preimage(), aggregate_certs(), "checkpoint");
  ckpt_.record_local(id, exec_.executed_cmds(), std::move(bytes), b);

  // The flooded message carries the dedicated checkpoint signature; the
  // outer Msg is unsigned (receivers verify the inner signature, which
  // is the one certificates collect), so one checkpoint costs one sign.
  const Msg m = unsigned_msg(MsgType::kCheckpoint, r_cur_, cp.encode());
  // Aggregate scheme: the replica that folds f+1 shares for this height
  // and floods the O(1) certificate is the height-th active signer of
  // the committed prefix. Every correct replica evaluates it at the same
  // committed state, so the choice is deterministic and generation-aware
  // (joiners become collectors once their policy commits; departed
  // members never do), and a withholding collector only delays its own
  // heights.
  const NodeId collector =
      aggregate_certs() ? membership_.leader_at(id.height) : kNoNode;
  if (aggregate_certs()) {
    // A 48-byte share is only useful to whoever folds the certificate:
    // instead of every replica flooding its attestation (the O(n) cert
    // bytes the individual scheme needs at every tallier), route the
    // share to the height's collector, which floods one O(1)
    // {bitset, aggregate} certificate for everyone (kCheckpointCert).
    if (collector != cfg_.id) send(collector, m);
  } else {
    broadcast(m);
  }

  // The local tally records the honest attestation even when the
  // broadcast was forged (the forged copy went to everyone else).
  // Aggregate scheme: only the collector tallies — everyone else learns
  // stability from its certificate.
  if (aggregate_certs() && collector != cfg_.id) return;
  const Bytes own_sig =
      forge_ckpt_ ? sign_preimage(id.preimage(), aggregate_certs(),
                                  "checkpoint", /*metered=*/false)
                  : cp.sig;
  if (const auto cert = ckpt_.add_signature(cfg_.id, id, own_sig)) {
    // Inside the commit loop: this block is committed, committed_height_
    // is not advanced yet.
    settle_low_water(b.height);
    broadcast_checkpoint_cert(*cert);
  }
}

void ReplicaBase::handle_checkpoint(const Msg& msg) {
  if (!ckpt_.enabled() || msg.author >= cfg_.n) return;
  // Departed members no longer attest state (joiners start attesting as
  // soon as their generation commits).
  if (membership_enforced() && !recent_signer(msg.author)) return;
  checkpoint::CheckpointMsg cp;
  try {
    cp = checkpoint::CheckpointMsg::decode(msg.data);
  } catch (const SerdeError&) {
    return;
  }
  if (cp.id.height <= ckpt_.stable_height()) return;
  const Bytes preimage = cp.id.preimage();
  // Aggregate scheme: a share-signed attestation (it folds into the
  // checkpoint certificate).
  if (!verify_metered(msg.author, preimage, cp.sig, aggregate_certs(),
                      "checkpoint")) {
    return;
  }
  // Remember the attestation: a checkpoint certificate tallied later
  // (state transfer, snapshot push) re-carries this exact signature.
  sig_verified_.emplace(sig_digest(msg.author, preimage, cp.sig),
                        committed_height_);
  if (const auto cert = ckpt_.add_signature(msg.author, cp.id, cp.sig)) {
    settle_low_water(committed_height_);
    broadcast_checkpoint_cert(*cert);
  }
}

void ReplicaBase::broadcast_checkpoint_cert(
    const checkpoint::CheckpointCert& cert) {
  if (!aggregate_certs()) return;
  broadcast(unsigned_msg(MsgType::kCheckpointCert, r_cur_,
                         fold_checkpoint_cert(cert).encode()));
}

checkpoint::CheckpointCert ReplicaBase::fold_checkpoint_cert(
    const checkpoint::CheckpointCert& cert) {
  charge(energy::Category::kSign,
         energy::agg_combine_energy_mj(cert.sigs.size()));
  return cert.to_aggregate(cfg_.n, generation_for_signers(cert.signer_list()));
}

void ReplicaBase::handle_checkpoint_cert(const Msg& msg) {
  if (!ckpt_.enabled() || !aggregate_certs()) return;
  checkpoint::CheckpointCert cert;
  try {
    cert = checkpoint::CheckpointCert::decode(msg.data);
  } catch (const SerdeError&) {
    return;
  }
  if (cert.scheme != CertScheme::kAggregate) return;
  if (cert.id.height <= ckpt_.stable_height()) return;
  if (!verify_checkpoint_cert(cert)) return;
  if (ckpt_.install_certified(cert)) settle_low_water(committed_height_);
}

void ReplicaBase::settle_low_water(std::uint64_t committed) {
  using Step = checkpoint::CheckpointManager::Step;
  const Step step = ckpt_.low_water_step(committed);
  if (step == Step::kTruncate) return advance_low_water();
  if (step != Step::kTransfer) return;
  // Deeply behind (crash recovery, late joiner): open (or retarget) a
  // state transfer to the stable checkpoint instead of replaying the
  // whole gap block by block.
  const std::uint64_t height = ckpt_.stable_height();
  const bool opening = !ckpt_.transferring();
  if (!ckpt_.open_transfer(height, sched_.now())) return;
  if (opening) {
    trace_begin("recovery", "state_transfer", height,
                {{"height", exp::Json(height)}});
  }
  send_state_request();
}

void ReplicaBase::advance_low_water() {
  const checkpoint::CheckpointCert& cert = *ckpt_.stable_cert();
  const Block* root = store_.get(cert.id.block);
  if (root == nullptr) return;
  const std::uint64_t prev_lwm = ckpt_.advance_low_water();
  trace_instant("checkpoint", "checkpoint_stable",
                {{"height", exp::Json(cert.id.height)}});

  // Both verification caches drop what was recorded at or below the
  // previous low-water mark: bytes that sat uncommitted, and votes or
  // attestations that certificates no longer re-carry, for a full
  // checkpoint interval.
  intake_.gc_verified(prev_lwm);
  std::erase_if(sig_verified_,
                [prev_lwm](const auto& kv) { return kv.second <= prev_lwm; });

  // Drop the retained-log prefix at or below the mark. Mempool
  // committed-key GC is pool-side: a forgotten key's late retransmit can
  // re-enter the pool, where the (log-deterministic) reply cache and the
  // per-client watermark still keep it from re-executing.
  std::size_t cut = 0;
  while (cut < log_.size() && log_[cut].height <= cert.id.height) {
    const Block& old = log_[cut];
    committed_.erase(old.hash());
    for (const Command& c : old.cmds) {
      if (ClientRequest::decode(c.data).has_value()) {
        mempool_.forget_committed(c.data);
      }
    }
    ++cut;
  }
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(cut));
  // Hook BEFORE store truncation: protocols distinguish "per-block side
  // state for a truncated block" from "side state for a block that has
  // not arrived yet" by looking the block up while it is still here.
  on_low_water(*root);
  // The flow-hook cache entries of the truncated blocks go with them.
  prof_block_cache_.erase(prof_block_cache_.begin(),
                          prof_block_cache_.lower_bound(root->height));
  store_.truncate_below(cert.id.block);
  sync_requested_.clear();  // pending ancestry below the mark is moot
}

// ---------------------------------------------------------------------------
// State transfer: catch up from a stable checkpoint
// ---------------------------------------------------------------------------

void ReplicaBase::send_state_request() {
  const NodeId target = ckpt_.next_transfer_peer(cfg_.id);
  if (target == kNoNode) return;
  Writer w;
  w.u64(ckpt_.transfer_height());
  send(target, make_msg(MsgType::kStateRequest, r_cur_, w.take()));
  st_timer_.start(4 * cfg_.delta, "state_transfer_timer",
                  [this] { send_state_request(); });
}

void ReplicaBase::handle_state_request(NodeId from, const Msg& msg) {
  if (!verify_msg(msg)) return;
  std::uint64_t height = 0;
  try {
    Reader r(msg.data);
    height = r.u64();
    r.expect_done();
  } catch (const SerdeError&) {
    return;
  }
  // Only the stable snapshot is served (serve_checkpoint checks that it
  // is held locally).
  if (height == ckpt_.stable_height()) serve_checkpoint(from);
}

void ReplicaBase::serve_checkpoint(NodeId from) {
  // Byzantine snapshot withholding: the requester's timeout rotates it
  // to another checkpoint signer, which serves instead.
  if (withhold_snap_) return;
  const auto* snap = ckpt_.serve_to(from);
  if (snap == nullptr) return;
  const checkpoint::CheckpointCert& cert = *ckpt_.stable_cert();
  // A cert assembled from share attestations goes out in the O(1)
  // aggregate form, tagged with the latest generation containing every
  // signer (a cert received already-aggregated is forwarded as is).
  const Bytes cert_wire =
      aggregate_certs() && cert.scheme == CertScheme::kIndividual
          ? fold_checkpoint_cert(cert).encode()
          : cert.encode();
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_codec("cert", "encode",
                               energy::Stream::kStateTransfer,
                               cert_wire.size());
  }
  Writer w;
  w.bytes(cert_wire);
  w.bytes(snap->block.encode());
  w.bytes(snap->payload);
  send(from, make_msg(MsgType::kStateResponse, r_cur_, w.take()));
}

void ReplicaBase::handle_state_response(const Msg& msg) {
  if (!verify_msg(msg)) return;
  checkpoint::CheckpointCert cert;
  Block root;
  Bytes payload_bytes;
  checkpoint::SnapshotPayload payload;
  try {
    Reader r(msg.data);
    cert = checkpoint::CheckpointCert::decode(r.bytes());
    root = Block::decode(r.bytes());
    payload_bytes = r.bytes();
    r.expect_done();
    payload = checkpoint::SnapshotPayload::decode(payload_bytes);
  } catch (const SerdeError&) {
    return;
  }
  // The certificate is the authority: f+1 replicas signed this exact
  // (height, block, digest). Verify it, then check the block and the
  // snapshot bytes against it. An unsolicited response (a sync peer
  // noticed we asked for history it truncated — chain sync provably
  // cannot close that gap) is safe to adopt whenever it is ahead of our
  // commits: the checkpointed state is final. A response below the
  // stable checkpoint is stale: installing it would move the stable
  // checkpoint down and abandon the transfer in flight.
  if (cert.id.height <= committed_height_ ||
      cert.id.height < ckpt_.stable_height()) {
    return;
  }
  if (!verify_checkpoint_cert(cert)) return;
  if (root.height != cert.id.height) return;
  if (hash_block(root) != cert.id.block) return;
  charge(energy::Category::kHash,
         energy::hash_energy_mj(payload_bytes.size()));
  prof_crypto("hash", "state_transfer");
  if (crypto::sha256(payload_bytes) != cert.id.digest) return;
  if (app_ != nullptr) {
    try {
      app_->restore(payload.app_snapshot);
    } catch (const SerdeError&) {
      return;  // digest-matching but app-incompatible snapshot: abort
    }
  }
  // Every check passed. Only now may an unsolicited snapshot open a
  // transfer: one that failed above must leave no transfer in flight,
  // or a genuine certificate below its claimed height would never open
  // one. An unsolicited snapshot is always an answer to a kSyncRequest
  // we sent: the recovery began when chain sync did.
  if (!ckpt_.transferring()) {
    ckpt_.open_transfer(cert.id.height,
                        sync_started_ != 0 ? sync_started_ : sched_.now());
    trace_begin("recovery", "state_transfer", cert.id.height,
                {{"height", exp::Json(cert.id.height)}});
  }

  // Re-root the chain at the checkpoint block and fast-forward.
  store_.adopt_root(root);
  store_.truncate_below(cert.id.block);
  committed_tip_ = cert.id.block;
  committed_height_ = cert.id.height;
  committed_.clear();
  committed_.insert(cert.id.block);
  prof_block_cache_.clear();
  log_.clear();
  exec_.restore(payload);
  intake_.clear_verified();
  ckpt_.install_stable(cert, payload.executed_cmds, std::move(payload_bytes),
                       root);
  sync_requested_.clear();
  sync_started_ = 0;

  st_timer_.cancel();
  const sim::Duration took = ckpt_.finish_transfer(sched_.now());
  trace_end("recovery", "state_transfer", ckpt_.transfer_height(),
            {{"height", exp::Json(cert.id.height)},
             {"ms", exp::Json(sim::to_milliseconds(took))}});

  on_state_transfer(root);
  // Buffered blocks above the checkpoint may connect now.
  connect_orphans();
}

// ---------------------------------------------------------------------------
// Client request path
// ---------------------------------------------------------------------------

void ReplicaBase::handle_request(const Msg& m) {
  // Clients sign with directory keys above the replica id range; the
  // signature checked here is the one embedded in the request itself
  // (it must survive into the block for commit-time re-verification).
  if (m.author < cfg_.n || m.author >= cfg_.keyring->size()) return;
  const auto req = ClientRequest::decode(m.data);
  if (!req.has_value() || req->client != m.author) return;
  const Bytes* replay = exec_.find(req->client, req->req_id);
  // Free drops run before the metered signature verification so floods
  // cost the replica nothing beyond reception.
  if (replay == nullptr) {
    // At or below the contiguous-executed frontier: this exact id
    // already executed and was acknowledged; its cached reply has been
    // GC'd since, so drop the retransmit.
    if (exec_.at_or_below_frontier(req->client, req->req_id)) return;
    const auto screen =
        intake_.screen(req->client, mempool_.client_pending(req->client));
    if (screen == RequestIntake::Screen::kEarlyDrop &&
        cfg_.profiler != nullptr) {
      cfg_.profiler->count_early_drop();
    }
    if (screen != RequestIntake::Screen::kAdmit) return;
  }
  // Every replica pools the same flooded request: the memo lets one
  // physical check of the embedded client signature serve the cluster.
  const bool ok = verify_metered(req->client, req->preimage(), req->sig,
                                 /*share=*/false, "request");
  intake_.verified(req->client, ok);
  if (!ok) return;
  // Retransmit of an already-committed request: replay the stored
  // result instead of re-pooling (the original reply may have been
  // lost on a faulty routing path).
  if (replay != nullptr) {
    reply_to_client(*req, *replay);
    return;
  }
  if (mempool_.submit(Command{m.data})) {
    prof_flow("pooled", req->client, req->req_id);
    // The signature in these exact bytes just verified: the commit path
    // can skip the re-check.
    intake_.remember_verified(m.data, committed_height_);
    // Flood-style request streams already reach every replica; under the
    // unicast-style submission policies only the contacted subset hears
    // a request, so the first replica to pool it (the mempool dedup
    // above) hands it to the leader. The leader itself never forwards.
    const auto kind = channel(energy::Stream::kRequest).policy().kind;
    if ((kind == net::DisseminationPolicy::Kind::kRoutedUnicast ||
         kind == net::DisseminationPolicy::Kind::kTargetedSubset) &&
        !is_leader()) {
      intake_.count_forward();
      send(leader_of(v_cur_), m);
    }
  }
}

void ReplicaBase::reply_to_client(const ClientRequest& req,
                                  const Bytes& result) {
  ClientReply rep;
  rep.client = req.client;
  rep.req_id = req.req_id;
  rep.result = result;
  // Leader hint for TargetedSubset clients: rides under the reply
  // signature, so lying is confined to the f Byzantine repliers.
  rep.leader = leader_of(v_cur_);
  Msg m = unsigned_msg(MsgType::kReply, r_cur_, rep.encode());
  // Aggregate scheme: a share over the acceptance preimage (client,
  // req_id, result) — not the Msg preimage — so the client can fold its
  // f+1 matching replies into one O(1) transferable acceptance
  // certificate.
  m.sig = sign_preimage(
      aggregate_certs() ? acceptance_preimage(req.client, req.req_id, result)
                        : m.preimage(),
      aggregate_certs(), "reply");
  if (cfg_.profiler != nullptr &&
      cfg_.profiler->is_sampled(req.client, req.req_id)) {
    prof_flow("reply", req.client, req.req_id);
    cfg_.profiler->attribute(req.client, req.req_id, energy::Stream::kReply,
                             m.wire_size());
  }
  send(req.client, m);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void ReplicaBase::on_deliver(NodeId origin, BytesView payload) {
  if (!online_) return;  // crashed / not yet joined: hears nothing
  const prof::Scope scope(cfg_.profiler, "replica.on_deliver");
  Msg m;
  try {
    m = Msg::decode(payload);
  } catch (const SerdeError&) {
    return;  // malformed: drop
  }
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_codec("replica", "decode", stream_of(m.type),
                               payload.size());
  }
  switch (m.type) {
    case MsgType::kSyncRequest:
    case MsgType::kSyncResponse:
      return handle_sync(origin, m);
    case MsgType::kRequest:
      return handle_request(m);
    case MsgType::kCheckpoint:
      // Authenticated by the dedicated checkpoint signature inside the
      // payload (the one certificates collect); no outer Msg signature.
      return handle_checkpoint(m);
    case MsgType::kCheckpointCert:
      // Self-authenticating: the embedded f+1 aggregate certificate is
      // the proof; no outer Msg signature.
      return handle_checkpoint_cert(m);
    case MsgType::kStateRequest:
      return handle_state_request(origin, m);
    case MsgType::kStateResponse:
      return handle_state_response(m);
    case MsgType::kReply:
      return;  // client-bound; not for replicas
    default:
      break;
  }
  if (requires_signature_check(m) && !verify_msg(m)) return;
  handle(origin, m);
}

void ReplicaBase::handle_sync(NodeId from, const Msg& msg) {
  if (!verify_msg(msg)) return;
  if (msg.type == MsgType::kSyncRequest) {
    // data = hash of the block the peer is missing. Reply with that block
    // and up to kMaxSyncBlocks of its ancestors (deepest first).
    const BlockHash& want = msg.data;
    const Block* b = store_.get(want);
    if (b == nullptr) {
      // A request for history we truncated below the stable checkpoint:
      // the asker is lagged past what chain sync can serve. Send the
      // checkpoint snapshot instead — the f+1-signed certificate inside
      // is self-authenticating, so the receiver needs no prior knowledge
      // of the cert (it may have missed every one-shot checkpoint vote
      // while crashed).
      serve_checkpoint(from);
      return;
    }
    Writer w;
    std::vector<Bytes> chain;
    const Block* cur = b;
    while (cur != nullptr && chain.size() < kMaxSyncBlocks) {
      chain.push_back(cur->encode());
      if (cur->height == 0) break;
      cur = store_.get(cur->parent);
    }
    w.u32(static_cast<std::uint32_t>(chain.size()));
    // Deepest-first so the receiver can connect as it reads.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) w.bytes(*it);
    Msg resp = make_msg(MsgType::kSyncResponse, r_cur_, w.take());
    send(from, resp);
    return;
  }
  // SyncResponse: adopt blocks then retry orphans.
  try {
    Reader r(msg.data);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count && i < kMaxSyncBlocks; ++i) {
      const Block b = Block::decode(r.bytes());
      if (!store_.add(b) && !store_.contains(b.parent)) store_.add_orphan(b);
    }
  } catch (const SerdeError&) {
    return;
  }
  connect_orphans();
  // Backward sync: a response can land entirely above our frontier (a
  // deep gap after a crash). Walk further down the ancestry of the
  // deepest orphan until the chains meet — or a stable checkpoint makes
  // state transfer take over.
  const auto deepest = store_.deepest_orphan();
  if (deepest.has_value() && !store_.contains(deepest->parent) &&
      sync_requested_.insert(deepest->parent).second) {
    if (sync_started_ == 0) sync_started_ = sched_.now();
    send(from, make_msg(MsgType::kSyncRequest, r_cur_, deepest->parent));
  } else if (!deepest.has_value()) {
    sync_started_ = 0;  // chains met: this sync episode is over
  }
}

}  // namespace eesmr::smr
