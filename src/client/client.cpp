#include "src/client/client.hpp"

#include <cmath>
#include <stdexcept>

#include "src/common/serde.hpp"
#include "src/energy/cost_model.hpp"
#include "src/smr/message.hpp"

namespace eesmr::client {

Client::Client(net::Network& net, ClientConfig cfg, energy::Meter* meter)
    : router_(net, cfg.id, this),
      cfg_(std::move(cfg)),
      meter_(meter),
      sched_(net.scheduler()),
      rng_(cfg_.seed ^ (0xC11E00ull + cfg_.id)) {
  if (!cfg_.keyring) throw std::invalid_argument("Client: keyring required");
  if (cfg_.cert_scheme == smr::CertScheme::kAggregate &&
      (!cfg_.agg || cfg_.agg->size() < cfg_.n)) {
    throw std::invalid_argument(
        "Client: aggregate scheme needs agg keys covering all replicas");
  }
  if (cfg_.id < cfg_.n) {
    throw std::invalid_argument("Client: id must be outside the replica range");
  }
  if (cfg_.keyring->size() <= cfg_.id) {
    throw std::invalid_argument("Client: keyring does not cover client id");
  }
  // Clients are leaves: they consume replies but never relay protocol
  // traffic (the network side is the `relay` vector passed to the
  // Network constructor).
  router_.set_forwarding(false);
  gen_ = make_generator(cfg_.workload.gen, rng_.next());

  // Open the typed request channel. The legacy retry_after knob folds in
  // as the submission timeout when the policy does not set one.
  net::DisseminationPolicy policy = cfg_.submit;
  if (policy.timeout <= 0 && cfg_.retry_after > 0) {
    policy.timeout = cfg_.retry_after;
  }
  std::vector<NodeId> replicas;
  replicas.reserve(cfg_.n);
  for (NodeId r = 0; r < cfg_.n; ++r) replicas.push_back(r);
  channel_ = std::make_unique<net::Channel>(
      router_, energy::Stream::kRequest, policy, std::move(replicas));
}

void Client::start() {
  if (started_) return;
  started_ = true;
  if (cfg_.workload.mode == WorkloadSpec::Mode::kClosedLoop) {
    fill_window();
  } else {
    schedule_next_arrival();
  }
}

void Client::fill_window() {
  while (budget_left() && pending_.size() < cfg_.workload.outstanding) {
    submit_one();
  }
}

void Client::schedule_next_arrival() {
  if (!budget_left()) return;
  // Poisson process: exponential inter-arrival at rate_per_sec.
  const double rate = std::max(cfg_.workload.rate_per_sec, 1e-9);
  const double gap_s = -std::log(1.0 - rng_.uniform()) / rate;
  const auto gap = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(gap_s * 1e6));
  sched_.after(gap, "client_arrival", [this] {
    if (!budget_left()) return;
    submit_one();
    schedule_next_arrival();
  });
}

void Client::submit_one() {
  const std::uint64_t req_id = next_req_id_++;
  pending_.emplace(req_id, Pending(sched_.now(), cfg_.f));
  ++submitted_;
  Bytes wire = build_request(req_id, gen_->next());
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_codec("client", "encode", energy::Stream::kRequest,
                               wire.size());
    // Request sampling claims slots in submission order; the flow
    // begins here and ends at the f+1 accept.
    if (cfg_.profiler->sample_request(cfg_.id, req_id)) {
      cfg_.profiler->attribute(cfg_.id, req_id, energy::Stream::kRequest,
                               wire.size());
      if (cfg_.tracer != nullptr) {
        const sim::SimTime ts = sched_.now();
        cfg_.tracer->complete(ts, cfg_.id, "request", "submit", 1,
                              {{"client", exp::Json(cfg_.id)},
                               {"req_id", exp::Json(req_id)}});
        cfg_.tracer->flow_begin(ts, cfg_.id, "request", "submit",
                                prof::Profiler::flow_id(cfg_.id, req_id));
      }
    }
  }
  // The channel disseminates per the submission policy and, when a
  // timeout is configured, re-sends (rotating the target subset under
  // TargetedSubset) until complete() on acceptance.
  channel_->submit(req_id, std::move(wire));
}

Bytes Client::build_request(std::uint64_t req_id, Bytes op) {
  smr::ClientRequest req;
  req.client = cfg_.id;
  req.req_id = req_id;
  req.op = std::move(op);
  // The signature lives inside the request so replicas can re-verify it
  // at commit time; the transport Msg needs no second signature.
  req.sig = cfg_.keyring->signer(cfg_.id).sign(req.preimage());
  if (meter_ != nullptr) {
    meter_->charge(energy::Category::kSign,
                   energy::sign_energy_mj(cfg_.keyring->scheme()));
  }
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_crypto("client", "sign", "request");
  }

  smr::Msg m;
  m.type = smr::MsgType::kRequest;
  m.view = 0;
  m.round = req_id;
  m.author = cfg_.id;
  m.data = req.encode();
  return m.encode();
}

void Client::on_deliver(NodeId, BytesView payload) {
  const std::optional<smr::Msg> decoded = try_decode<smr::Msg>(payload);
  if (!decoded) return;
  const smr::Msg& m = *decoded;
  if (m.type != smr::MsgType::kReply) return;  // flooded protocol traffic
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_codec("client", "decode", energy::Stream::kReply,
                               payload.size());
  }
  if (m.author >= cfg_.n) return;              // only replicas may reply
  const auto rep = smr::ClientReply::decode(m.data);
  if (!rep.has_value()) return;
  // The signed reply names its client: an acknowledgment for another
  // client's colliding req_id cannot be replayed to us.
  if (rep->client != cfg_.id) return;
  const auto it = pending_.find(rep->req_id);
  if (it == pending_.end()) return;  // unknown or already accepted
  // Only now pay for the signature check: late replies past acceptance
  // and other clients' acknowledgments cost nothing. Under the aggregate
  // scheme the reply carries a 48-byte share over the acceptance
  // preimage (client, req_id, result) instead of a directory signature
  // over the Msg — the same bytes that later fold into the cert.
  const bool aggregate = cfg_.cert_scheme == smr::CertScheme::kAggregate;
  if (meter_ != nullptr) {
    meter_->charge(energy::Category::kVerify,
                   aggregate
                       ? energy::agg_verify_energy_mj(1)
                       : energy::verify_energy_mj(cfg_.keyring->scheme()));
  }
  if (cfg_.profiler != nullptr) {
    cfg_.profiler->count_crypto("client", "verify", "reply");
  }
  // Each reply has exactly one verifier (its client), so it is checked
  // directly rather than through the replicas' verdict memo.
  const Bytes preimage =
      aggregate
          ? smr::acceptance_preimage(rep->client, rep->req_id, rep->result)
          : m.preimage();
  const bool sig_ok =
      aggregate ? cfg_.agg->verify_share(m.author, preimage, m.sig)
                : cfg_.keyring->verify(m.author, preimage, m.sig);
  if (!sig_ok) return;

  // The verified reply names the replier's current leader: steer the
  // next submissions there, so they reach the leader directly instead of
  // relying on blind rotation + replica forwarding (TargetedSubset only;
  // see Channel::prefer).
  if (rep->leader != kNoNode) {
    channel_->prefer(rep->leader);
  }

  Pending& p = it->second;
  if (aggregate) p.shares[m.author] = {rep->result, m.sig};
  const auto result = p.acks.add(m.author, rep->result);
  if (!result.has_value()) return;

  // Fold the f+1 shares matching the accepted result into one O(1)
  // transferable acceptance certificate.
  if (aggregate) {
    smr::AcceptanceCert cert;
    cert.client = cfg_.id;
    cert.req_id = rep->req_id;
    cert.result = *result;
    cert.signers = crypto::SignerBitset(cfg_.n);
    cert.agg_sig = crypto::AggKeyring::empty_aggregate();
    for (const auto& [author, rs] : p.shares) {
      if (rs.first != *result) continue;
      if (cert.signers.count() > cfg_.f) break;  // f+1 shares suffice
      cert.signers.set(author);
      crypto::AggKeyring::fold_into(cert.agg_sig, rs.second);
    }
    if (meter_ != nullptr) {
      meter_->charge(energy::Category::kSign,
                     energy::agg_combine_energy_mj(cert.signers.count()));
    }
    if (cfg_.profiler != nullptr) {
      cfg_.profiler->count_codec("client", "encode", energy::Stream::kReply,
                                 cert.encoded_size());
    }
    ++certs_folded_;
    if (acceptance_certs_.size() < kMaxStoredResults) {
      acceptance_certs_.emplace(rep->req_id, std::move(cert));
    }
  }

  // First time this request reaches f+1 identical results: accept.
  latency_.add(sched_.now() - p.submitted_at);
  const std::size_t replies = p.acks.replies();
  min_replies_at_accept_ = accepted_ == 0
                               ? replies
                               : std::min(min_replies_at_accept_, replies);
  ++accepted_;
  if (cfg_.profiler != nullptr && cfg_.tracer != nullptr &&
      cfg_.profiler->is_sampled(cfg_.id, rep->req_id)) {
    const sim::SimTime ts = sched_.now();
    cfg_.tracer->complete(ts, cfg_.id, "request", "accept", 1,
                          {{"client", exp::Json(cfg_.id)},
                           {"req_id", exp::Json(rep->req_id)},
                           {"replies", exp::Json(replies)}});
    cfg_.tracer->flow_end(ts, cfg_.id, "request", "accept",
                          prof::Profiler::flow_id(cfg_.id, rep->req_id));
  }
  if (results_.size() < kMaxStoredResults) results_[rep->req_id] = *result;
  channel_->complete(rep->req_id);
  pending_.erase(it);

  if (cfg_.workload.mode == WorkloadSpec::Mode::kClosedLoop) fill_window();
}

}  // namespace eesmr::client
